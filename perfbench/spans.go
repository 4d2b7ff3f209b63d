package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans stay in memory during the run
// and are written out once at the end.
type span struct {
	Name   string `json:"name"`
	Prog   string `json:"prog,omitempty"` // shared by every span of one program run
	Parent int    `json:"parent"`         // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`       // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End−Start minus the time its children cover
	leaf   bool
}

// tracer collects spans. Children of one span never overlap (every layer
// call in the benchmark is sequential), so the time children cover is the
// sum of their durations.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name, prog string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Prog: prog, Parent: parent, Start: t.now(), leaf: true})
	if parent >= 0 {
		t.spans[parent].leaf = false
	}
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// call runs f inside a span named name.
func (t *tracer) call(name, prog string, parent int, f func()) {
	id := t.begin(name, prog, parent)
	f()
	t.end(id)
}

func (s *span) dur() int64 { return s.End - s.Start }

// finish computes every span's self time.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].dur()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.dur()
		}
	}
}

// passLayers aggregates the spans of one pass, the subtree rooted at
// spans[root] (spans are appended in call order, so the subtree is the
// contiguous run of spans that descend from root): per-name total
// duration, and the pass time no layer call covers — the self time of
// the pass and of the grouping spans (program, rebuild round) in it.
func (t *tracer) passLayers(root int) (byName map[string]int64, unattributed int64) {
	byName = map[string]int64{}
	in := map[int]bool{root: true}
	for i := root + 1; i < len(t.spans) && in[t.spans[i].Parent]; i++ {
		in[i] = true
		s := &t.spans[i]
		byName[s.Name] += s.dur()
		if !s.leaf {
			unattributed += s.Self
		}
	}
	return byName, unattributed + t.spans[root].Self
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
