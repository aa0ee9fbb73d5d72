package main

import (
	"testing"
	"time"
)

// A hand-built tree: the root's children overlap each other and one runs
// past the root's end; a grandchild nests inside the first child.
func TestSelfTimes(t *testing.T) {
	mk := func(id, parent int, name string, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []span{
		mk(0, -1, "root", 0, 100),
		mk(1, 0, "a", 10, 40),
		mk(2, 0, "b", 30, 60),    // overlaps a: [10, 60] covered once
		mk(3, 0, "c", 90, 120),   // clipped to the root's end: [90, 100]
		mk(4, 1, "a1", 15, 20),   // inside a
		mk(5, -1, "other", 0, 7), // a second root with no children
	}
	want := []time.Duration{40, 25, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	tot := totals(spans)
	if tot["root"].Calls != 1 || tot["a"].MeanUS != us(30) || tot["a"].SelfMS != ms(25) {
		t.Errorf("totals = %+v", tot)
	}
}

// A disabled tracer records nothing; an enabled one records parent links
// and request ids.
func TestTracer(t *testing.T) {
	off := newTracer(false)
	off.timed("x", 0, off.start("root", 0, -1), func() {})
	if len(off.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(off.spans))
	}
	on := newTracer(true)
	root := on.start("root", 3, -1)
	on.timed("child", 3, root, func() {})
	on.finish(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Req != 3 {
		t.Fatalf("spans = %+v", on.spans)
	}
	if s := on.spans[0]; s.End < s.Start || on.spans[1].Start < s.Start || on.spans[1].End > s.End {
		t.Fatalf("child not inside root: %+v", on.spans)
	}
}
