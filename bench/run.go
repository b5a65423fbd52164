package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation's knobs.
type runConfig struct {
	seed    uint64
	seconds float64 // nominal length of the timed phase; op counts scale with it
	scale   float64 // extra op-count factor (tests run at 1/50)
	setups  int     // how many times to set up at least (the median is reported)
	tr      *tracer // nil: untraced
	outDir  string  // scratch directories and trace files go here
}

// refSeconds is the run length the base op counts below are sized for on
// the reference box (2 shared cores): each workload's timed phase takes
// roughly this long at HEAD.
const refSeconds = 10

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// configSeed seeds what a deployment fixes in its configuration and
// --seed therefore does not touch: the public coins of long-lived sets,
// the nodes' peer-selection generators, the simnet's. The data — points,
// churn, the oneshots' per-op protocol seeds — all comes from --seed.
//
// It has to be so for the measurement to be steady. With
// emd.DefaultParams on a small Hamming cube only a handful of the ~49k
// drawn LSH functions sample a real coordinate (the rest read padding),
// and where those few fall decides how many sketch cells one mutation
// churns: across public-coin seeds the delta bits per session spread over
// 30%, far more than any bound could carry.
const configSeed = 77

// ops scales a base op count (sized for refSeconds) to this run. Work is
// always a fixed operation count decided before the clock starts, never
// "as many as fit".
func (rc runConfig) ops(base, floor int) int {
	return max(int(math.Round(float64(base)*rc.seconds/refSeconds*rc.scale)), floor)
}

// A workload sets up at least rc.setups times and keeps going, up to
// maxSetups times, until minSetupTotal has been spent: a millisecond-scale
// set-up needs more repetitions than three for a steady median.
const (
	maxSetups     = 25
	minSetupTotal = 0.4 // seconds
)

// moreSetups reports whether another set-up repetition is due, given the
// durations so far.
func (rc runConfig) moreSetups(done []float64) bool {
	var total float64
	for _, s := range done {
		total += s
	}
	return len(done) < rc.setups || (rc.setups > 1 && total < minSetupTotal && len(done) < maxSetups)
}

// result is what one pass over a workload measured.
type result struct {
	inputs    uint64    // hash of every generated input
	setupS    []float64 // one entry per set-up
	opMS      []float64 // op latencies, in op order
	opEndS    []float64 // when each op completed, seconds into the timed phase
	timedS    float64   // wall time of the timed phase
	attempted int
	failed    int
	wireBits  float64 // total over the timed phase
	rounds    float64 // total over the timed phase
	mallocs   uint64  // over the timed phase
	cpuS      float64 // process CPU (user+system) over the timed phase
	info      []string
	layer     map[string]float64 // per-layer metrics (traced run)
	failures  []string           // first few failure descriptions
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// reserveOps sizes the per-op records so that recording an op allocates
// nothing inside the timed phase.
func (r *result) reserveOps(n int) {
	r.opMS, r.opEndS = make([]float64, 0, n), make([]float64, 0, n)
}

// opDone records one op that started at t0 and has just completed.
func (r *result) opDone(t0 time.Time, tm *timed) {
	now := time.Now()
	r.opMS = append(r.opMS, ms(now.Sub(t0)))
	r.opEndS = append(r.opEndS, now.Sub(tm.start).Seconds())
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// timed brackets the timed phase: wall clock, allocation count and
// process CPU time.
type timed struct {
	start time.Time
	m0    runtime.MemStats
	cpu0  float64
}

func beginTimed() *timed {
	runtime.GC() // start every timed phase from a collected heap
	t := &timed{cpu0: processCPU()}
	runtime.ReadMemStats(&t.m0)
	t.start = time.Now()
	return t
}

func (t *timed) end(r *result) {
	r.timedS = time.Since(t.start).Seconds()
	r.cpuS = processCPU() - t.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - t.m0.Mallocs
}

// processCPU is the user plus system CPU seconds this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// workload is one named entry of the benchmark.
type workload struct {
	name string
	run  func(rc runConfig) (*result, error)
}

var workloads = []workload{
	{"emd-oneshot", runEMDOneshot},
	{"gap-oneshot", runGapOneshot},
	{"churn-serve", runChurnServe},
	{"mesh-churn", runMeshChurn},
	{"mesh-rtt", runMeshRTT},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"wire_bits_per_op", "bits"},
	{"rounds_per_op", "count"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics the traced run reports: 49 of single layers,
// and five workload-specific end-to-end quantities that cannot be
// bounded because they exist on one workload only (see README). A layer
// that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"hashx.prefix_ns_per_point", "ns"}, {"hashx.evals_per_point", "count"}, {"hashx.mix_ns_per_key", "ns"},
	{"lsh.pstable_ns_per_point", "ns"}, {"lsh.coord_ns_per_point", "ns"}, {"lsh.funcs_per_point", "count"},
	{"riblt.insert_ns_per_item", "ns"}, {"riblt.peel_us_per_table", "us"}, {"riblt.peel_fail_share", "share"}, {"riblt.cell_bits", "bits"},
	{"iblt.insert_ns_per_key", "ns"}, {"iblt.decode_us_per_table", "us"}, {"iblt.retry_share", "share"}, {"iblt.strata_codec_us", "us"},
	{"emd.build_ms", "ms"}, {"emd.encode_ms", "ms"}, {"emd.decode_ms", "ms"}, {"emd.apply_ms", "ms"}, {"emd.msg_bits", "bits"}, {"emd.levels", "count"},
	{"gap.alice_busy_ms", "ms"}, {"gap.bob_busy_ms", "ms"}, {"gap.rounds", "count"}, {"gap.msg_bits", "bits"}, {"gap.payload_ns_per_point", "ns"},
	{"transport.enc_ns_per_kbit", "ns"}, {"transport.dec_ns_per_kbit", "ns"}, {"transport.allocs_per_frame", "count"},
	{"netproto.frames_per_session", "count"}, {"netproto.frame_overhead_bits", "bits"},
	{"netproto.responder_busy_us.probe", "us"}, {"netproto.responder_busy_us.live-emd", "us"}, {"netproto.responder_busy_us.repair", "us"},
	{"session.dials_per_op", "count"}, {"session.sessions_per_op", "count"}, {"session.writes_per_session", "count"},
	{"session.handshake_us", "us"}, {"session.read_wait_ms_per_op", "ms"},
	{"live.apply_us", "us"}, {"live.snapshot_us", "us"}, {"live.delta_share", "share"}, {"live.new_set_ms", "ms"},
	{"durable.log_us_per_record", "us"}, {"durable.wal_bytes_per_record", "bytes"}, {"durable.replay_us_per_record", "us"}, {"durable.open_ms", "ms"},
	{"cluster.round_busy_ms", "ms"}, {"cluster.sessions_per_round", "count"}, {"cluster.noop_share", "share"},
	{"fail_share", "share"}, {"emd_ratio_p50", "ratio"},
	{"mutate_p50_us", "us"}, {"mutate_p90_us", "us"}, {"recover_s", "s"},
}

// endToEndValues derives the end-to-end metrics from one untraced pass.
func endToEndValues(r *result) map[string]float64 {
	lat := sortedCopy(r.opMS)
	p50, _ := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	ops := float64(len(r.opMS))
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"ops_per_s":        segmentRate(r.opEndS),
		"op_p50_ms":        p50,
		"op_p90_ms":        p90,
		"wire_bits_per_op": r.wireBits / ops,
		"rounds_per_op":    r.rounds / ops,
		"allocs_per_op":    float64(r.mallocs) / ops,
		"peak_rss_mb":      peakRSSMB(),
	}
}

// rateSegments is how many runs of consecutive ops the timed phase is cut
// into for ops_per_s.
const rateSegments = 5

// segmentRate is ops completed per second, taken as the median over
// rateSegments equal runs of consecutive ops rather than over the whole
// timed phase: on a shared box a neighbour's burst slows a stretch of a
// run, and the median ignores it unless it covers most of the run. ends
// are completion times in seconds from the start of the timed phase.
func segmentRate(ends []float64) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	per := n / rateSegments
	if per == 0 {
		return float64(n) / ends[n-1]
	}
	var rates []float64
	prev := 0.0
	for s := 0; s < rateSegments; s++ {
		last := (s+1)*per - 1
		if s == rateSegments-1 {
			last = n - 1
		}
		first := s * per
		rates = append(rates, float64(last-first+1)/(ends[last]-prev))
		prev = ends[last]
	}
	return median(rates)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// latencyLine describes a latency sample the way the metrics guide asks:
// median, the highest percentile the sample supports, and the count.
func latencyLine(label, unit string, xs []float64) string {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return label + ": no samples"
	}
	p50, _ := percentile(s, 50)
	line := fmt.Sprintf("%s: n=%d p50=%.4g%s", label, len(s), p50, unit)
	top, v, ok := highestSupported(s)
	if ok && top > 50 {
		line += fmt.Sprintf(" p%g=%.4g%s (highest with >=%d samples beyond)", top, v, unit, minBeyond)
	}
	if top < 99 {
		p99, beyond := percentile(s, 99)
		line += fmt.Sprintf(" p99=%.4g%s (info, %d beyond)", p99, unit, beyond)
	}
	return line + fmt.Sprintf(" max=%.4g%s", s[len(s)-1], unit)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
