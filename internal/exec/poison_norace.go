//go:build !race

package exec

// SlabPoison is true only under the race detector (poison_race.go).
const SlabPoison = false
