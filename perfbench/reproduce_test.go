package main

import (
	"bytes"
	"os"
	"testing"
)

func TestCheckFigure1OnCommittedOutput(t *testing.T) {
	out, err := os.ReadFile("../reproduce_output.txt")
	if err != nil {
		t.Skip("no reproduce_output.txt next to perfbench:", err)
	}
	r := newReport()
	checkFigure1(r, out)
	if len(r.wrong) != 0 {
		t.Fatalf("the committed tables fail the Figure 1 oracle: %v", r.wrong)
	}

	// A gain moved by 1e-11 must fail.
	bad := bytes.Replace(out, []byte("-0.08224853333333326"), []byte("-0.08224853334333326"), 1)
	if bytes.Equal(bad, out) {
		t.Fatal("the committed Figure 1 gains changed; update the perturbed value")
	}
	r = newReport()
	checkFigure1(r, bad)
	if len(r.wrong) != 1 || r.failed != 1 {
		t.Errorf("perturbed gain: %d wrong answers, %d failed; want 1 and 1", len(r.wrong), r.failed)
	}

	// Output without Figure 1 is a failed check, not a pass.
	r = newReport()
	checkFigure1(r, []byte("=== F2: no figure one here\n"))
	if len(r.wrong) != 1 {
		t.Errorf("missing Figure 1: %d wrong answers, want 1", len(r.wrong))
	}
}
