package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a traced op. Spans are recorded by the
// harness, from outside the program: one root per op, one child per
// client-visible step (register, submit, await_job › poll,
// cluster_sync), and under the step that ran the job the intervals the
// response's Stats report (queue_wait, symmetrize, cluster). The API
// gives those three as durations only, so they are laid end to end from
// the start of their parent; their order and length are real, their
// offset nominal.
type span struct {
	Op      int     `json:"op"`     // schedule index; spans of one op share it
	ID      int     `json:"id"`     // unique within the op, root is 0
	Parent  int     `json:"parent"` // -1 for the root
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the traced stretch began
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"` // duration minus the part children cover
}

// opTrace collects the spans of one op. A nil *opTrace records nothing,
// so untraced ops run the same code without the bookkeeping.
type opTrace struct {
	op    int
	epoch time.Time
	spans []span
}

func (t *opTrace) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *opTrace) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, StartMS: t.ms(time.Now())})
	return id
}

func (t *opTrace) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndMS = t.ms(time.Now())
}

// reported adds the Stats intervals of the job a step ran, end to end
// from the step's start and clipped to it.
func (t *opTrace) reported(parent int, res *clusterResult) {
	if t == nil || res == nil || res.Stats == nil {
		return
	}
	at, limit := t.spans[parent].StartMS, t.spans[parent].EndMS
	add := func(name string, ms float64) {
		if ms <= 0 {
			return
		}
		end := at + ms
		if end > limit {
			end = limit
		}
		t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, StartMS: at, EndMS: end})
		at = end
	}
	add("queue_wait", res.Stats.QueueWaitMillis)
	add("symmetrize", res.Stats.Stages["symmetrize"].WallMillis)
	add("cluster", res.Stats.Stages["cluster"].WallMillis)
}

// finish fills in every span's self time: its duration minus the union
// of its children's intervals.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartMS, s.EndMS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfMS = s.EndMS - s.StartMS - covered(children[s.ID], s.StartMS, s.EndMS)
	}
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total float64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// durations returns the length of every span with the given name.
func durations(traces []*opTrace, name string) []float64 {
	var out []float64
	for _, t := range traces {
		for _, s := range t.spans {
			if s.Name == name {
				out = append(out, s.EndMS-s.StartMS)
			}
		}
	}
	return out
}

// attributedShare is the share of client-observed op time the trace
// attributes to a named step: one minus the roots' self time over the
// roots' duration.
func attributedShare(traces []*opTrace) float64 {
	var self, total float64
	for _, t := range traces {
		if len(t.spans) == 0 {
			continue
		}
		self += t.spans[0].SelfMS
		total += t.spans[0].EndMS - t.spans[0].StartMS
	}
	if total == 0 {
		return 0
	}
	return 1 - self/total
}

// writeTrace writes every span as one JSON line.
func writeTrace(path string, traces []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traces {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
