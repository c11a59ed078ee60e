//go:build !race

package exec

const slabPoison = false
