package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Track processes: trace events are grouped into Perfetto "processes"
// by what they describe. One thread (track) per tile under PidCores,
// one per directed link wire-plane under PidLinks; message lifecycle
// spans are async events under PidMessages.
const (
	PidCores    = 1
	PidLinks    = 2
	PidMessages = 3
)

// CyclesPerMicrosecond converts the 4 GHz simulated clock (internal/cmp)
// to the microsecond timestamps of the Chrome trace-event format.
const CyclesPerMicrosecond = 4000.0

// Arg is one numeric key/value attached to a trace event. Args are
// ordered (not a map) so event serialization is byte-deterministic,
// and concretely typed so hook calls never box values into interfaces
// on the hot path (tilesimvet's hotalloc rule flags boxing there).
type Arg struct {
	Key string
	Val float64
}

// Tracer writes message-lifecycle span events in the Chrome
// trace-event JSON format (the "JSON Array Format" of the catapult
// trace-event spec), loadable in Perfetto and chrome://tracing.
//
// A Tracer is attached to at most one simulated system (cmp.System's
// SetTracer); the simulator is single-threaded per system, so the
// Tracer is deliberately lock-free. All timestamps are simulated
// cycles, converted to microseconds of 4 GHz time on output; nothing
// wall-clock ever enters the file, so two same-seed runs produce
// byte-identical traces.
//
// Sampling: NextID hands out sequential span ids and reports whether
// the id falls on the sample grid (every Nth). Hooks skip all event
// emission for unsampled spans, bounding file size on long runs.
type Tracer struct {
	w     *bufio.Writer
	every uint64
	next  uint64 // last id handed out
	wrote bool   // a first event exists (comma management)
	// tracks remembers which (pid, tid) pairs have emitted their
	// thread_name metadata; pids likewise for process_name.
	tracks map[[2]int]bool
	pids   map[int]bool
	err    error
}

// NewTracer starts a trace on w. sampleEvery selects the sampling
// stride: 1 (or less) traces every span, N > 1 traces every Nth.
// Close must be called to finish the JSON document.
func NewTracer(w io.Writer, sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := &Tracer{
		w:      bufio.NewWriterSize(w, 1<<16),
		every:  uint64(sampleEvery),
		tracks: make(map[[2]int]bool),
		pids:   make(map[int]bool),
	}
	t.w.WriteString("{\"traceEvents\":[\n")
	t.SetProcessName(PidCores, "cores")
	t.SetProcessName(PidLinks, "links")
	t.SetProcessName(PidMessages, "messages")
	return t
}

// NextID returns a fresh span id and whether the span is sampled.
// Unsampled spans must not emit events; the id is still unique so
// sampled ids never collide.
func (t *Tracer) NextID() (id uint64, sampled bool) {
	t.next++
	return t.next, t.next%t.every == 0
}

// SampleEvery returns the sampling stride.
func (t *Tracer) SampleEvery() uint64 { return t.every }

// Err returns the first write error, if any (surfaced by Close; the
// buffered writer's own sticky error turns later hook calls into
// no-ops, so a full disk cannot crash a simulation).
func (t *Tracer) Err() error { return t.err }

// Close terminates the JSON document and flushes. The underlying
// writer is not closed (the caller owns the file handle).
func (t *Tracer) Close() error {
	t.w.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// sep writes the inter-event comma.
func (t *Tracer) sep() {
	if t.wrote {
		t.w.WriteString(",\n")
	}
	t.wrote = true
}

// ts renders a cycle count as a microsecond timestamp.
func ts(cycles uint64) string {
	return strconv.FormatFloat(float64(cycles)/CyclesPerMicrosecond, 'g', -1, 64)
}

// writeArgs renders an ordered arg list as a JSON object.
func (t *Tracer) writeArgs(args []Arg) {
	t.w.WriteString("\"args\":{")
	for i, a := range args {
		if i > 0 {
			t.w.WriteByte(',')
		}
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		fmt.Fprintf(t.w, "%s:%s", quote(a.Key), formatFloat(a.Val))
	}
	t.w.WriteByte('}')
}

// SetProcessName emits the process_name metadata for a pid once.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t.pids[pid] {
		return
	}
	t.pids[pid] = true
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
		pid, quote(name))
	// Keep the processes in declaration order in the Perfetto UI.
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"M","pid":%d,"tid":0,"name":"process_sort_index","args":{"sort_index":%d}}`,
		pid, pid)
}

// SetTrackName emits the thread_name metadata for a (pid, tid) once;
// later calls for the same track are free no-ops, so hooks may call it
// unconditionally before emitting onto a track.
func (t *Tracer) SetTrackName(pid, tid int, name string) {
	k := [2]int{pid, tid}
	if t.tracks[k] {
		return
	}
	t.tracks[k] = true
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, tid, quote(name))
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, tid, tid)
}

// Complete emits an "X" (complete) span on a synchronous track.
func (t *Tracer) Complete(pid, tid int, name, cat string, startCycle, durCycles uint64, args []Arg) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"dur":%s,`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, tid, quote(name), quote(cat), ts(startCycle), ts(durCycles))
	t.writeArgs(args)
	t.w.WriteByte('}')
}

// Begin opens an async span (ph "b"). Async spans of one (cat, id)
// pair form one lane in Perfetto, so overlapping message lifetimes
// render side by side instead of nesting.
func (t *Tracer) Begin(pid int, id uint64, name, cat string, cycle uint64) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"b","pid":%d,"tid":0,"id":"0x%x","name":%s,"cat":%s,"ts":%s}`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, id, quote(name), quote(cat), ts(cycle))
}

// End closes an async span (ph "e") with final args.
func (t *Tracer) End(pid int, id uint64, name, cat string, cycle uint64, args []Arg) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"e","pid":%d,"tid":0,"id":"0x%x","name":%s,"cat":%s,"ts":%s,`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, id, quote(name), quote(cat), ts(cycle))
	t.writeArgs(args)
	t.w.WriteByte('}')
}

// Instant emits an "i" instant event on a synchronous track.
func (t *Tracer) Instant(pid, tid int, name, cat string, cycle uint64) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"s":"t"}`,
		//tilesim:allocok sampled-span emission: runs only when tracing is enabled and the span is sampled
		pid, tid, quote(name), quote(cat), ts(cycle))
}

// Counter emits a "C" counter event: each arg becomes one series of
// the named counter track.
func (t *Tracer) Counter(pid int, name string, cycle uint64, series []Arg) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"C","pid":%d,"name":%s,"ts":%s,`,
		pid, quote(name), ts(cycle))
	t.writeArgs(series)
	t.w.WriteByte('}')
}

// Annotate attaches one ad-hoc named value as an instant event on the
// cores process. The value parameter is an interface: this is a
// cold-path convenience for tests and one-off debugging, and must
// never be called from a simulation hot path (tilesimvet's hotalloc
// rule flags it — boxing the value allocates).
func (t *Tracer) Annotate(key string, value any) {
	t.sep()
	fmt.Fprintf(t.w,
		`{"ph":"i","pid":%d,"tid":0,"name":%s,"cat":"annotation","ts":0,"s":"g","args":{"value":%s}}`,
		PidCores, quote(key), quote(fmt.Sprint(value)))
}
