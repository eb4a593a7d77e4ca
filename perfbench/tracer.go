package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans caps a traced phase's span memory; spans past it are not kept.
const maxSpans = 400_000

// span is one timed interval on rank 0. Spans of one op share Op; a span's
// Parent is the span that enclosed it (-1 for none).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps rank 0's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced phases pay one nil check per span.
type tracer struct {
	base  time.Time
	spans []span
	// sample, when > 1, records the spans of every sample-th op only.
	sample int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<12), sample: 1}
}

// begin opens a span and returns its id (-1 when not recorded). op < 0
// marks a span outside any op (set-up).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil || len(t.spans) >= maxSpans || (op >= 0 && t.sample > 1 && op%t.sample != 0) {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: time.Since(t.base).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.base).Nanoseconds()
}

// record adds an already-measured span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil || len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, ID: int32(len(t.spans)), Parent: -1, Op: -1,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
}

// selfTimes returns each span name's self times in ns: a span's duration
// minus the part its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i]))
	}
	return out
}

// coverage is the share of op-span time that the op's child spans account
// for: how much of an op's wall time the trace attributes to a layer.
func (t *tracer) coverage() float64 {
	if t == nil {
		return 0
	}
	var ops, covered int64
	for _, s := range t.spans {
		switch {
		case s.Op >= 0 && s.Parent < 0:
			ops += s.End - s.Start
		case s.Op >= 0 && t.spans[s.Parent].Parent < 0:
			covered += s.End - s.Start
		}
	}
	return ratio(float64(covered), float64(ops))
}

// write stores the spans as JSON lines, led by one line of run facts.
func (t *tracer) write(dir string, cfg config, host map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host, "spans": len(t.spans)}); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
