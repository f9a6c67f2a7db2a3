package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API. Spans of one slice share
// its Slice id; Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Slice  int     `json:"slice"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory from the one goroutine that drives the
// benchmark. A nil tracer records nothing, so untraced slices run the same
// code without the bookkeeping.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	slice int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named after the API it calls.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Slice: t.slice, Parent: parent, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	return err
}

// layerTime is a span name's time over the whole run: Total sums its spans,
// Self subtracts what their child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self float64
}

func (t *tracer) layerTimes() []layerTime {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += self[i]
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
