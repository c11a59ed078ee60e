package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"

	"predplace"
	"predplace/internal/expr"
)

// outcome is what the correctness gate compares for one statement: the row
// count, an order-insensitive checksum over every value of every row, and
// the charged cost in random-I/O units. For plan_only, where nothing
// executes, Rows is 0, the checksum is over the plan text and Charged is the
// optimizer's estimate for the plan it chose.
type outcome struct {
	Rows     int     `json:"rows"`
	Checksum string  `json:"checksum"`
	Charged  float64 `json:"charged"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile maps workload → statement → expected outcome at the workload's
// committed scale. Regenerate with -update-golden after a deliberate change
// to results or charged cost.
type goldenFile map[string]map[string]outcome

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g goldenFile) write(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowsChecksum hashes every value together with its column's name, adds the
// value hashes of a row, and adds the mixed row sums: the same multiset of
// rows gives the same checksum in any row order and — because SELECT *
// returns columns in the chosen plan's join order — any column order.
func rowsChecksum(cols []string, rows [][]predplace.Value) uint64 {
	salts := make([]uint64, len(cols))
	for i, c := range cols {
		salts[i] = textChecksum(c)
	}
	var sum uint64
	for _, row := range rows {
		var h uint64
		for c, v := range row {
			x := uint64(v.Kind)
			if v.Kind == expr.TString {
				for i := 0; i < len(v.S); i++ {
					x = (x ^ uint64(v.S[i])) * 0x100000001b3
				}
			} else {
				x ^= uint64(v.I) << 8
			}
			h += mix64(salts[c] ^ x)
		}
		sum += mix64(h)
	}
	return sum
}

func textChecksum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func hex(sum uint64) string { return strconv.FormatUint(sum, 16) }

// resultOutcome summarizes an executed statement for the gate.
func resultOutcome(res *predplace.Result) outcome {
	return outcome{Rows: len(res.Rows), Checksum: hex(rowsChecksum(res.Cols, res.Rows)), Charged: res.Stats.Charged()}
}
