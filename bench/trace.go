package main

// Span recording for the traced run. Spans are opened from the
// benchmark's own files around each call into a layer's public
// functions; no product file carries a hook. A span's name is
// "<layer>.<what>", where layer is the repository package the call
// enters ("bench" for the benchmark's own op envelope, "wait" for time a
// party spends blocked on its peer).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Op     int    `json:"op"`     // spans of one op share its id
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an interval that was measured by the caller.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other and
// may outlive the parent; both are handled by clipping and taking the
// union).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// blockingShares divides each op's wall time among its spans so that the
// shares add up to that wall time even when spans of one op overlap (the
// two parties of a protocol, a responder beside its initiator). At every
// instant the spans that are running with no child running are the ones
// doing something; a stretch of time is split equally among those of
// them that are not waits, and goes to the waits only when nothing else
// is running. Without overlap a span's share equals its self time.
func blockingShares(spans []span) []float64 {
	share := make([]float64, len(spans))
	byOp := make(map[int][]int)
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	for _, ids := range byOp {
		cuts := make([]int64, 0, 2*len(ids))
		for _, i := range ids {
			cuts = append(cuts, spans[i].Start, spans[i].End)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			if hi == lo {
				continue
			}
			running := func(i int) bool { return spans[i].Start <= lo && spans[i].End >= hi }
			hasRunningChild := make(map[int]bool)
			for _, i := range ids {
				if running(i) && spans[i].Parent >= 0 {
					hasRunningChild[spans[i].Parent] = true
				}
			}
			var busy, waits []int
			for _, i := range ids {
				switch {
				case !running(i) || hasRunningChild[i]:
				case layerOf(spans[i].Name) == "wait":
					waits = append(waits, i)
				default:
					busy = append(busy, i)
				}
			}
			if len(busy) == 0 {
				busy = waits
			}
			for _, i := range busy {
				share[i] += float64(hi-lo) / float64(len(busy))
			}
		}
	}
	return share
}

// layerTotals sums self time and blocking share per layer, and the
// non-wait blocking share per op.
func layerTotals(spans []span) (self, blocking map[string]float64, perOpBusy map[int]float64) {
	st, bs := selfTimes(spans), blockingShares(spans)
	self, blocking = make(map[string]float64), make(map[string]float64)
	perOpBusy = make(map[int]float64)
	for i, s := range spans {
		l := layerOf(s.Name)
		self[l] += float64(st[i])
		blocking[l] += bs[i]
		if l != "wait" {
			perOpBusy[s.Op] += bs[i]
		}
	}
	return self, blocking, perOpBusy
}

// spanDurationsMS collects the durations of every span with the given
// name.
func spanDurationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Inputs   string `json:"inputs_hash"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
