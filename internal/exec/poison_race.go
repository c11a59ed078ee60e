//go:build race

package exec

// SlabPoison: under the race detector every slabPool poisons what it
// invalidates (see poisonSlabs), so the whole -race suite checks row lifetimes.
const SlabPoison = true
