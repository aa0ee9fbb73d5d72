package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 at the root
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer records nothing and
// does not read the clock, which is the tracing-off baseline. It is not
// safe for concurrent use: the traced run is serial.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(t.t0)})
	return id
}

// finish closes a span opened by start.
func (t *tracer) finish(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.t0)
	}
}

// timed runs f inside a span.
func (t *tracer) timed(name string, req, parent int, f func()) {
	id := t.start(name, req, parent)
	f()
	t.finish(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children that overlap each other
// count once; parts outside the parent are ignored).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerTotal is one span name's aggregate.
type layerTotal struct {
	Calls  int     `json:"calls"`
	MeanUS float64 `json:"mean_us"`
	SelfMS float64 `json:"self_ms"`
}

// totals aggregates spans by name.
func totals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	out := map[string]layerTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.Calls++
		t.SelfMS += ms(self[i])
		sum[s.Name] += s.End - s.Start
		out[s.Name] = t
	}
	for name, t := range out {
		t.MeanUS = us(sum[name]) / float64(t.Calls)
		out[name] = t
	}
	return out
}
