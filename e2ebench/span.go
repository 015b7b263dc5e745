package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call; nothing inside the program is instrumented.
// Children may overlap (concurrent calls under one parent), so a span's
// self time is its duration minus the union of its children's
// intervals, clipped to the span. A nil *span is a no-op, which is how
// the untraced run pays nothing.
type span struct {
	name       string
	start, end time.Time

	mu       sync.Mutex
	children []*span
}

// newSpan starts a root span.
func newSpan(name string) *span {
	return &span{name: name, start: time.Now()}
}

// child starts a span under s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.childAt(name, time.Now())
}

// childAt starts a span under s at a given start time (for spans whose
// start was recorded before the call, like a request's due time).
func (s *span) childAt(name string, start time.Time) *span {
	if s == nil {
		return nil
	}
	c := &span{name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// finish ends the span now.
func (s *span) finish() {
	if s != nil {
		s.end = time.Now()
	}
}

// duration is the span's wall time.
func (s *span) duration() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration minus the time covered by its children.
func (s *span) self() time.Duration {
	s.mu.Lock()
	ivs := make([][2]time.Time, 0, len(s.children))
	for _, c := range s.children {
		lo, hi := c.start, c.end
		if lo.Before(s.start) {
			lo = s.start
		}
		if hi.After(s.end) {
			hi = s.end
		}
		if hi.After(lo) {
			ivs = append(ivs, [2]time.Time{lo, hi})
		}
	}
	s.mu.Unlock()
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var covered time.Duration
	var curLo, curHi time.Time
	for i, iv := range ivs {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0].After(curHi):
			covered += curHi.Sub(curLo)
			curLo, curHi = iv[0], iv[1]
		case iv[1].After(curHi):
			curHi = iv[1]
		}
	}
	if len(ivs) > 0 {
		covered += curHi.Sub(curLo)
	}
	return s.duration() - covered
}

// spanTotals aggregates a tree by span name.
type spanTotals struct {
	count       int
	total, self time.Duration
}

// summarize walks the tree and totals every span by name.
func (s *span) summarize(into map[string]*spanTotals) {
	if s == nil {
		return
	}
	t := into[s.name]
	if t == nil {
		t = &spanTotals{}
		into[s.name] = t
	}
	t.count++
	t.total += s.duration()
	t.self += s.self()
	s.mu.Lock()
	children := append([]*span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.summarize(into)
	}
}

// writeSummary prints the per-name totals of a traced run.
func (s *span) writeSummary(w io.Writer) {
	totals := map[string]*spanTotals{}
	s.summarize(totals)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, t.count,
			float64(t.total)/1e6, float64(t.self)/1e6)
	}
}

// spanJSON is the written form of a span: offsets from the root's start
// and durations, in microseconds.
type spanJSON struct {
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	SelfUS   int64       `json:"self_us"`
	Children []*spanJSON `json:"children,omitempty"`
}

// export converts the tree for writing, with times relative to origin.
func (s *span) export(origin time.Time) *spanJSON {
	out := &spanJSON{Name: s.name, StartUS: s.start.Sub(origin).Microseconds(),
		DurUS: s.duration().Microseconds(), SelfUS: s.self().Microseconds()}
	s.mu.Lock()
	children := append([]*span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.export(origin))
	}
	return out
}
