package main

import (
	"reflect"
	"testing"

	"predplace/internal/lint"
)

// TestFilterPackages: a package pattern selects what `go list` selects —
// `X/...` is X and its subtree, anything else exactly one package, so
// `./internal/p` is neither internal/plan nor internal/pcache.
func TestFilterPackages(t *testing.T) {
	const (
		root   = "predplace"
		pplint = "predplace/cmd/pplint"
		exec   = "predplace/internal/exec"
		lnt    = "predplace/internal/lint"
		pcache = "predplace/internal/pcache"
		plan   = "predplace/internal/plan"
	)
	all := []string{root, pplint, exec, lnt, pcache, plan}
	var pkgs []*lint.Package
	for _, p := range all {
		pkgs = append(pkgs, &lint.Package{Path: p})
	}
	for _, c := range []struct {
		patterns []string
		want     []string
	}{
		{nil, all},
		{[]string{"./..."}, all},
		{[]string{"."}, []string{root}},
		{[]string{"./internal/p"}, nil},
		{[]string{"./internal/plan"}, []string{plan}},
		{[]string{"./internal/plan/"}, []string{plan}},
		{[]string{"internal/pcache"}, []string{pcache}},
		{[]string{"./internal/..."}, []string{exec, lnt, pcache, plan}},
		{[]string{"./internal/exec/..."}, []string{exec}},
		{[]string{"./cmd/pplint", "./internal/lint"}, []string{pplint, lnt}},
		{[]string{"./internal/lint", "./internal/..."}, []string{exec, lnt, pcache, plan}},
	} {
		var got []string
		for _, pkg := range filterPackages(pkgs, c.patterns) {
			got = append(got, pkg.Path)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("patterns %q select %q, want %q", c.patterns, got, c.want)
		}
	}
}
