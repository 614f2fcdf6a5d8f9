package main

import (
	"bytes"
	"strings"
	"testing"

	"vaq/internal/experiments"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	reg := experiments.Registry()
	if len(lines) != len(reg) {
		t.Fatalf("-list printed %d lines, registry has %d experiments", len(lines), len(reg))
	}
	for i, e := range reg {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d = %q, want id %q", i, lines[i], e.ID)
		}
	}
}

// TestUsageErrorsExit2 covers every argument the command refuses before
// running anything; none of these cases may start an experiment.
func TestUsageErrorsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		msg  string
	}{
		{"unknown experiment", []string{"-exp", "nosuch", "-scale", "quick"}, `unknown experiment "nosuch"`},
		{"unknown scale", []string{"-exp", "fig7", "-scale", "huge"}, `unknown scale "huge"`},
		{"missing -exp", nil, "-exp is required"},
		{"deleted flag", []string{"-json", "x"}, "flag provided but not defined: -json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
			}
			if !strings.Contains(errb.String(), c.msg) {
				t.Fatalf("stderr %q does not mention %q", errb.String(), c.msg)
			}
			if out.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %q", out.String())
			}
		})
	}
}
