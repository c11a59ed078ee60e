package exec

import (
	"fmt"
	"testing"

	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
)

// widthSchedule is the sequence of dst lengths TestOperatorsWidthSchedule
// pulls with: one row (what next asks for), short and full batches, and an
// empty dst.
var widthSchedule = []int{1, 5, 1, 256, 2, 0, 3}

// pullSchedule runs root the way Run does, but pulls it with the width
// schedule instead of one width. An empty dst must return (0, nil) and leave
// the input where it was; the first empty answer to a non-empty dst ends
// the stream.
func pullSchedule(t *testing.T, what string, env *Env, root plan.Node) *Result {
	t.Helper()
	env.begin()
	defer env.slabs.release()
	if env.Transfer {
		if err := env.runTransferPrepass(root); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	it, err := Build(env, root)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := it.Open(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var rows []expr.Row
	buf := make([]expr.Row, 256)
	for i := 0; ; i++ {
		w := widthSchedule[i%len(widthSchedule)]
		n, err := it.NextBatch(buf[:w])
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if w == 0 {
			if n != 0 {
				t.Fatalf("%s: NextBatch over an empty dst returned %d rows", what, n)
			}
			continue
		}
		if n == 0 {
			break
		}
		for _, row := range buf[:n] {
			rows = append(rows, append(expr.Row(nil), row...))
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	res := &Result{Rows: rows, Stats: env.finish(len(rows))}
	if env.prof != nil {
		res.Profile = assembleProfile(env, root)
	}
	return res
}

// TestOperatorsWidthSchedule: an operator sees one-row pulls and full-width
// pulls on the same instance — a filter or hash join that is a nested
// loop's outer side, a Limit clamping dst — so whatever it carries across
// calls must not depend on the width staying the same. Every subtree of
// every arenaShape, made a root of its own so that each operator type takes
// the schedule (the empty dst included) directly, must deliver under the
// schedule what a straight Run delivers: the same rows (in order when
// serial), the same charged cost, the same per-node row counts (kept under
// Profile, which every other batch width turns on) — at every width the
// operators below the root run at (what a hash build, a merge
// join's sides, a TopK fill and an exchange's workers pull with): a thin
// scan's batches end where its pages do, so no two widths cut alike.
func TestOperatorsWidthSchedule(t *testing.T) {
	for _, sh := range arenaShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			for knobs := 0; knobs < 4; knobs++ {
				transfer, caching := knobs&1 != 0, knobs&2 != 0
				var subtrees []plan.Node
				plan.Walk(sh.root(t, caching, transfer), func(n plan.Node) { subtrees = append(subtrees, n) })
				for i, root := range subtrees {
					for j, bs := range []int{1, 2, 7, 64, 256, 257} {
						p := []int{1, 4}[(i+j)%2]
						what := fmt.Sprintf("%s subtree %d (%s) transfer=%v caching=%v P=%d BS=%d", sh.name, i, root.Describe(), transfer, caching, p, bs)
						env := &Env{Cat: sh.db.Cat, Pool: sh.db.Pool, Cache: pcache.NewManager(caching, 0),
							Parallelism: p, BatchSize: bs, Transfer: transfer, Profile: j%2 == 0}
						want, err := Run(env, root)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got := pullSchedule(t, what, env, root)
						if p == 1 || deliversInOrder(root) {
							sameRows(t, what, got.Rows, want.Rows)
						} else {
							sameRowMultiset(t, got.Rows, want.Rows)
						}
						if p > 1 && caching {
							continue // concurrent misses may invoke twice (DESIGN.md §11)
						}
						if g, w := got.Stats.Charged(), want.Stats.Charged(); g != w {
							t.Fatalf("%s: charged %v under the schedule, %v straight", what, g, w)
						}
						sameActRows(t, what+" under the schedule", got.Profile, want.Profile)
					}
				}
			}
		})
	}
}
