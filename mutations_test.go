package predplace_test

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	pexec "predplace/internal/exec"
)

// mutation is one row of testdata/mutations.txt: a one-place change to a
// source file that the named tests of pkg must catch.
type mutation struct {
	id, file, old, new, pkg string
	tests                   []string
	pr                      string
	race                    bool // the tests catch it under the race detector
}

// readMutations parses testdata/mutations.txt: '#' lines and blank lines are
// comments; every other line is seven tab-separated fields — id, file, old
// text, new text (both Go string literals), package, comma-separated test
// names, and the PR that recorded the mutation — and an optional eighth,
// "-race", for a mutation only the race detector sees.
func readMutations(t *testing.T) []mutation {
	f, err := os.Open(filepath.Join("testdata", "mutations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []mutation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 7 && (len(fields) != 8 || fields[7] != "-race") {
			t.Fatalf("mutations.txt:%d: %d tab-separated fields, want 7, or 8 ending in -race", line, len(fields))
		}
		m := mutation{id: fields[0], file: fields[1], pkg: fields[4], tests: strings.Split(fields[5], ","), pr: fields[6], race: len(fields) == 8}
		if m.old, err = strconv.Unquote(fields[2]); err != nil {
			t.Fatalf("mutations.txt:%d: old text: %v", line, err)
		}
		if m.new, err = strconv.Unquote(fields[3]); err != nil {
			t.Fatalf("mutations.txt:%d: new text: %v", line, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// mutationTimeout bounds one row: building the mutated package's test binary
// and running the named tests.
const mutationTimeout = 100 * time.Second

// TestMutations applies each row of testdata/mutations.txt through
// `go test -overlay` — the working tree is never written — and passes the
// row only if one of its named tests fails. A row whose old text is not
// found exactly once fails too, so a refactor that moves the code updates
// the row instead of dropping it. A "-race" row builds its tests with the
// race detector, whose report fails the test it happens in. Rows run two at
// a time; check.sh's mutation gate runs this test on its own. It builds and
// runs test binaries, so it is skipped under -short, and under the race
// detector, where the gate has already run it.
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a test binary per mutation")
	}
	if pexec.SlabPoison {
		t.Skip("check.sh's mutation gate runs it without the race detector")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sem := make(chan struct{}, 2)
	seen := map[string]bool{}
	for _, m := range readMutations(t) {
		if seen[m.id] {
			t.Fatalf("mutation id %s listed twice", m.id)
		}
		seen[m.id] = true
		t.Run(m.id, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s (PR %s): old text found %d times in %s, want once: %q", m.id, m.pr, n, m.file, m.old)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			args := []string{"test", "-overlay", overlayPath, "-count=1"}
			if m.race {
				args = append(args, "-race")
			}
			args = append(args, "-timeout", mutationTimeout.String(), "-run", "^("+strings.Join(m.tests, "|")+")$", m.pkg)
			var out []byte
			// The race a race row plants can end its test binary with an
			// unrecoverable runtime error (concurrent map writes) before any
			// test reports. Such a run has no verdict, so the row runs again,
			// at most three times.
			for attempt := 0; attempt < 3; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), mutationTimeout)
				cmd := exec.CommandContext(ctx, goBin, args...)
				cmd.Dir = root
				out, _ = cmd.CombinedOutput()
				cancel()
				for _, name := range m.tests {
					if strings.Contains(string(out), "--- FAIL: "+name+" ") {
						return
					}
				}
				if !m.race || !strings.Contains(string(out), "fatal error: ") {
					break
				}
			}
			t.Fatalf("%s (PR %s) survived: none of %v failed with %s changed\n%q\n->\n%q\n%s",
				m.id, m.pr, m.tests, m.file, m.old, m.new, out)
		})
	}
}
