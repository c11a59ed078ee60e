package optimizer

import (
	"testing"

	"predplace/internal/plan"
	"predplace/internal/query"
)

// q5 builds the Query 5 shape (Figure 9): t3, t6, t10 joined normally, t7
// connected only through an expensive join predicate, plus an expensive
// selection on t3. PullUp hoists the selection above the expensive join and
// explodes; Migration keeps it below.

func TestQuery5ExpensivePrimaryJoin(t *testing.T) {
	db := benchDB(t, 3, 6, 7, 10)
	sel := func() *query.Predicate {
		return fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u10"})
	}
	join := func() *query.Predicate {
		return fp(t, db, "costly10join",
			query.ColRef{Table: "t3", Col: "u20"}, query.ColRef{Table: "t7", Col: "u20"})
	}
	mk := func() *query.Query {
		return mkQuery(t, db, []string{"t3", "t6", "t7", "t10"}, []*query.Predicate{
			jp("t3", "ua1", "t10", "ua1"),
			jp("t6", "a1", "t10", "a10"),
			join(),
			sel(),
		})
	}
	pu, _ := planWith(t, db, PullUp, mk())
	mg, _ := planWith(t, db, Migration, mk())
	pd, _ := planWith(t, db, PushDown, mk())

	// The expensive-primary-join explosion: PullUp's plan must be
	// dramatically worse than Migration's.
	if pu.Cost() < mg.Cost()*3 {
		t.Fatalf("PullUp (%v) should explode vs Migration (%v)\npullup:\n%s\nmigration:\n%s",
			pu.Cost(), mg.Cost(), plan.Render(pu), plan.Render(mg))
	}
	if mg.Cost() > pd.Cost()*1.0001 {
		t.Fatalf("Migration (%v) must not lose to PushDown (%v)", mg.Cost(), pd.Cost())
	}
}

func TestMigrationFixpointTerminates(t *testing.T) {
	db := benchDB(t, 1, 3, 9, 10)
	q := mkQuery(t, db, []string{"t1", "t3", "t9", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t3", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
		jp("t9", "a10", "t10", "a10"),
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
		fp(t, db, "costly10", query.ColRef{Table: "t10", Col: "u10"}),
		fp(t, db, "costly1", query.ColRef{Table: "t9", Col: "u100"}),
	})
	root, info := planWith(t, db, Migration, q)
	if info.MigrationPasses <= 0 {
		t.Fatal("migration did not run")
	}
	if info.MigrationPasses >= 24*5 {
		t.Fatalf("migration did not converge: %d passes", info.MigrationPasses)
	}
	if root.Cost() <= 0 {
		t.Fatal("bad cost")
	}
}

func TestMigrationIdempotent(t *testing.T) {
	// Running migrate on an already-migrated plan must not change its cost.
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t3", "t10", "t1"}, []*query.Predicate{
		jp("t3", "ua1", "t10", "ua1"),
		jp("t10", "ua1", "t1", "ua1"),
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
	})
	opt := New(db.Cat, Options{Algorithm: Migration})
	root, _, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := opt.migrate(root)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost() > root.Cost()*1.0001 || again.Cost() < root.Cost()*0.9999 {
		t.Fatalf("re-migration changed cost: %v -> %v", root.Cost(), again.Cost())
	}
}

func TestMigrationRespectsHomeConstraints(t *testing.T) {
	// A secondary join predicate must never sink below its primary join.
	db := benchDB(t, 3, 10)
	sec := jp("t3", "a10", "t10", "a10")
	q := mkQuery(t, db, []string{"t3", "t10"}, []*query.Predicate{
		jp("t3", "ua1", "t10", "ua1"),
		sec,
		fp(t, db, "costly100", query.ColRef{Table: "t10", Col: "u20"}),
	})
	root, _ := planWith(t, db, Migration, q)
	f, err := Flatten(root)
	if err != nil {
		t.Fatal(err)
	}
	// One of the two join predicates is primary; the other must live in
	// AfterFilters of step ≥ 0 — never in BaseFilters or InnerFilters.
	for _, p := range f.BaseFilters {
		if p.IsJoin() {
			t.Fatalf("join predicate sank to base filters:\n%s", plan.Render(root))
		}
	}
	for _, s := range f.Steps {
		for _, p := range s.InnerFilters {
			if p.IsJoin() {
				t.Fatalf("join predicate sank to inner filters:\n%s", plan.Render(root))
			}
		}
	}
}

func TestUnpruneableRetention(t *testing.T) {
	// With an expensive selection whose rank sits between a join's rank and
	// the group rank (Query 4 shape), the DP must retain unpruneable
	// subplans for the migration post-pass.
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t3", "t10", "t1"}, []*query.Predicate{
		jp("t3", "ua1", "t10", "ua1"),
		jp("t10", "ua1", "t1", "ua1"),
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
	})
	_, info := planWith(t, db, Migration, q)
	if info.UnpruneableRetained == 0 {
		t.Fatal("expected unpruneable subplans to be retained (plan-space enlargement, §4.4)")
	}
}

func TestMigrateNeverIncreasesCost(t *testing.T) {
	// migrate() tracks the best placement seen (including the input), so
	// migrating any plan must never increase its estimated cost.
	db := benchDB(t, 1, 2, 3, 4)
	opt := New(db.Cat, Options{Algorithm: Migration})
	cases := [][]*query.Predicate{
		{jp("t1", "ua1", "t2", "ua1"), fp(t, db, "costly100", query.ColRef{Table: "t2", Col: "u20"})},
		{jp("t1", "ua1", "t3", "ua1"), jp("t3", "ua1", "t4", "ua1"),
			fp(t, db, "costly10", query.ColRef{Table: "t3", Col: "u10"}),
			fp(t, db, "costly1", query.ColRef{Table: "t4", Col: "u100"})},
		{jp("t2", "a10", "t4", "a10"), fp(t, db, "costly1000", query.ColRef{Table: "t2", Col: "ua1"})},
	}
	for ci, preds := range cases {
		tables := map[string]bool{}
		for _, p := range preds {
			for _, ref := range []query.ColRef{p.Left, p.Right} {
				if ref.Table != "" {
					tables[ref.Table] = true
				}
			}
			for _, a := range p.Args {
				tables[a.Table] = true
			}
		}
		var tlist []string
		for _, tb := range []string{"t1", "t2", "t3", "t4"} {
			if tables[tb] {
				tlist = append(tlist, tb)
			}
		}
		for _, seedAlgo := range []Algorithm{NaivePushDown, PushDown, PullUp} {
			q := mkQuery(t, db, tlist, clonePreds(preds))
			seed, _ := planWith(t, db, seedAlgo, q)
			// migrate runs inside a planning; this direct call brings its own
			// skeleton.
			var err error
			if opt.skel, err = newSkeleton(db.Cat, q); err != nil {
				t.Fatal(err)
			}
			migrated, _, err := opt.migrate(seed)
			if err != nil {
				t.Fatalf("case %d seed %v: %v", ci, seedAlgo, err)
			}
			if migrated.Cost() > seed.Cost()*1.0001 {
				t.Fatalf("case %d: migrate increased cost from %v (%v) to %v",
					ci, seed.Cost(), seedAlgo, migrated.Cost())
			}
		}
	}
}
