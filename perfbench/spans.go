package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one event or one batch share id; parent indexes the
// enclosing span in the recorder (-1 for a root).
type span struct {
	name       string
	id         int64
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory for the whole traced run; they are written
// out once, when the run ends. Capacity is fixed up front so recording never
// allocates in a timed region; a full recorder drops spans and counts them.
type recorder struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its handle (-1 when the recorder is full
// or nil, which end and children accept).
func (r *recorder) begin(name string, id int64, parent int) int {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].end = time.Since(r.epoch)
}

// room reports whether n more spans fit.
func (r *recorder) room(n int) bool { return r == nil || len(r.spans)+n <= cap(r.spans) }

// fold turns spans into self times — a span's duration minus the part of
// its interval its children cover — grouped by span name and event id.
func fold(spans []span) map[string]map[int64][]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]map[int64][]time.Duration)
	for i, s := range spans {
		self := s.end - s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		reach := s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				self -= hi - lo
				reach = hi
			}
		}
		if out[s.name] == nil {
			out[s.name] = make(map[int64][]time.Duration)
		}
		out[s.name][s.id] = append(out[s.name][s.id], self)
	}
	return out
}

// perEvent reduces each event's self times (one per replay) to their
// median.
func perEvent(byID map[int64][]time.Duration) map[int64]time.Duration {
	out := make(map[int64]time.Duration, len(byID))
	for id, ds := range byID {
		out[id] = median(ds)
	}
	return out
}

// medianOver is the median over events.
func medianOver(byID map[int64]time.Duration) time.Duration {
	ds := make([]time.Duration, 0, len(byID))
	for _, d := range byID {
		ds = append(ds, d)
	}
	return median(ds)
}

// pairedMedian is the median over events present in both of a − b: the
// cost one rung adds to the same event, free of the spread between events.
func pairedMedian(a, b map[int64]time.Duration) time.Duration {
	ds := make([]time.Duration, 0, len(a))
	for id, d := range a {
		if e, ok := b[id]; ok {
			ds = append(ds, d-e)
		}
	}
	return median(ds)
}

// writeSpans dumps every recorded span to path, creating its directory:
// one JSON array per line, [index, name, id, parent, start_ns, end_ns].
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perfbench: span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if err := enc.Encode([]any{i, s.name, s.id, s.parent, int64(s.start), int64(s.end)}); err != nil {
			f.Close()
			return fmt.Errorf("perfbench: writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return f.Close()
}

// median and quantile of durations (sorted copy; zero for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
