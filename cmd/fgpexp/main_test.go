package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentFails: a misspelled -exp must not look like a
// successful run that printed nothing.
func TestUnknownExperimentFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "tabel1"}, &out, &errb); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment printed output:\n%s", out.String())
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown experiment "tabel1"`) {
		t.Errorf("stderr does not name the bad experiment: %q", msg)
	}
	for _, name := range []string{"table1", "fig12", "table2", "table3", "fig13", "fig14",
		"throughput", "multipair", "schedule", "normalize", "simd", "queuelen",
		"search", "machspace", "attribution", "all"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list %q: %q", name, msg)
		}
	}
}

func TestKnownExperimentRuns(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lammps-1") {
		t.Errorf("table1 output lacks the kernel inventory:\n%s", out.String())
	}
}
