package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"pathprof/internal/workloads"
)

// golden is the expected output of one reproduction pass over a
// program set: per-program fingerprint lines, the exact counts, the
// total VM steps of a replayed pass, and the rendered tables and
// figures (byte-identical to `pppbench` over the same set).
type golden struct {
	lines    map[string][]string
	exact    string
	steps    int64
	rendered string
}

const renderedMarker = "--- rendered ---"

func goldenPath(dir string, set []workloads.Workload) string {
	name := "suite"
	if len(set) != len(workloads.All()) {
		name = strings.Join(names(set), "+")
	}
	return filepath.Join(dir, name+".txt")
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head, rendered, ok := strings.Cut(string(data), renderedMarker+"\n")
	if !ok {
		return nil, fmt.Errorf("%s: no %q section", path, renderedMarker)
	}
	g := &golden{lines: map[string][]string{}, rendered: rendered}
	sc := bufio.NewScanner(strings.NewReader(head))
	for sc.Scan() {
		line := sc.Text()
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "":
		case "exact":
			g.exact = rest
		case "steps":
			if g.steps, err = strconv.ParseInt(rest, 10, 64); err != nil {
				return nil, fmt.Errorf("%s: steps: %w", path, err)
			}
		default:
			g.lines[key] = append(g.lines[key], line)
		}
	}
	return g, nil
}

// writeGolden records a pass's outputs as the golden copy, after
// checking that the traced replay reproduces the untraced pass.
func writeGolden(path string, set []workloads.Workload, pass, replay *passResult) error {
	if len(pass.failed) > 0 || pass.renderErr != nil || len(replay.failed) > 0 {
		return fmt.Errorf("pass failed: %v %v %v", pass.failed, pass.renderErr, replay.failed)
	}
	var b strings.Builder
	for _, w := range set {
		if !slices.Equal(pass.lines[w.Name], replay.lines[w.Name]) {
			return fmt.Errorf("%s: replay differs from the suite pass:\n%v\n%v", w.Name, pass.lines[w.Name], replay.lines[w.Name])
		}
		for _, l := range pass.lines[w.Name] {
			b.WriteString(l + "\n")
		}
	}
	fmt.Fprintf(&b, "exact %s\nsteps %d\n%s\n%s", pass.exact, replay.steps, renderedMarker, pass.rendered)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
