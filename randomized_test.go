package predplace_test

import (
	"testing"

	"predplace"
)

func TestEstimatesTrackMeasured(t *testing.T) {
	// The cost model and the executor charge in the same units; on the
	// benchmark queries the estimate should track the measurement closely
	// for Migration plans (the paper's §5.2 choices deliberately
	// under-estimate some join inputs, so the tolerance is loose).
	db, err := predplace.Open(predplace.Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)",
		"SELECT * FROM t10, t9 WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)",
		"SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)",
		"SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)",
	}
	for _, sql := range queries {
		res, err := db.Query(sql, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		charged := res.Stats.Charged()
		ratio := res.EstCost / charged
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("estimate %v vs charged %v (ratio %.2f) for %q",
				res.EstCost, charged, ratio, sql)
		}
	}
}
