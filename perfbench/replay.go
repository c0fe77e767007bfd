package main

import (
	"bytes"
	"fmt"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/client"
	"denova/internal/workload"
)

// target is the system under test as the load sees it: the in-process
// denova.FS API or a client.Client connection. Files are addressed by the
// trace's file key; each load goroutine owns a disjoint set of keys.
type target interface {
	create(key int, path string) error
	write(key int, p []byte, off int64) error
	read(key int, p []byte, off int64) ([]byte, error)
	stat(key int) (int64, error)
	remove(key int, path string) error
	truncate(key int, size int64) error
}

// localTarget calls denova.FS and denova.File directly. With a tracer it
// opens a root span per call, passes it to the *Span file operations so
// nova's spans join the call's trace, and records the call itself as a
// benchmark span.
type localTarget struct {
	fs     *denova.FS
	files  map[int]*denova.File
	tracer *obs.Tracer
	spans  []span
}

func (t *localTarget) file(key int) (*denova.File, error) {
	f := t.files[key]
	if f == nil {
		return nil, fmt.Errorf("file %d: no open handle (trace order broken?)", key)
	}
	return f, nil
}

// traced runs fn inside a benchmark span named name when tracing is on.
func (t *localTarget) traced(name string, fn func(sc denova.SpanContext) error) error {
	sc := t.tracer.StartRoot(0)
	if !sc.Valid() {
		return fn(sc)
	}
	start := time.Now()
	err := fn(sc)
	t.spans = append(t.spans, span{name: name, trace: sc.Trace,
		start: start.UnixNano(), dur: time.Since(start).Nanoseconds()})
	return err
}

func (t *localTarget) create(key int, path string) error {
	return t.traced("bench.create", func(denova.SpanContext) error {
		f, err := t.fs.Create(path)
		t.files[key] = f
		return err
	})
}

func (t *localTarget) write(key int, p []byte, off int64) error {
	f, err := t.file(key)
	if err != nil {
		return err
	}
	return t.traced("bench.write", func(sc denova.SpanContext) error {
		_, err := f.WriteAtSpan(p, off, sc)
		return err
	})
}

func (t *localTarget) read(key int, p []byte, off int64) ([]byte, error) {
	f, err := t.file(key)
	if err != nil {
		return nil, err
	}
	var n int
	err = t.traced("bench.read", func(sc denova.SpanContext) error {
		var err error
		n, err = f.ReadAtSpan(p, off, sc)
		return err
	})
	return p[:n], err
}

func (t *localTarget) stat(key int) (int64, error) {
	f, err := t.file(key)
	if err != nil {
		return 0, err
	}
	var size int64
	err = t.traced("bench.stat", func(denova.SpanContext) error {
		size = f.Stat().Size
		return nil
	})
	return size, err
}

func (t *localTarget) remove(key int, path string) error {
	err := t.traced("bench.remove", func(denova.SpanContext) error { return t.fs.Remove(path) })
	delete(t.files, key)
	return err
}

func (t *localTarget) truncate(key int, size int64) error {
	f, err := t.file(key)
	if err != nil {
		return err
	}
	return t.traced("bench.truncate", func(sc denova.SpanContext) error { return f.TruncateSpan(size, sc) })
}

// wireTarget drives one client.Client connection.
type wireTarget struct {
	cl      *client.Client
	handles map[int]denova.Handle
}

func (t *wireTarget) handle(key int) (denova.Handle, error) {
	h, ok := t.handles[key]
	if !ok {
		return 0, fmt.Errorf("file %d: no handle (trace order broken?)", key)
	}
	return h, nil
}

func (t *wireTarget) create(key int, path string) error {
	h, err := t.cl.Create(path)
	t.handles[key] = h
	return err
}

func (t *wireTarget) write(key int, p []byte, off int64) error {
	h, err := t.handle(key)
	if err != nil {
		return err
	}
	n, err := t.cl.Write(h, uint64(off), p)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(p))
	}
	return err
}

func (t *wireTarget) read(key int, p []byte, off int64) ([]byte, error) {
	h, err := t.handle(key)
	if err != nil {
		return nil, err
	}
	return t.cl.Read(h, uint64(off), uint32(len(p)))
}

func (t *wireTarget) stat(key int) (int64, error) {
	h, err := t.handle(key)
	if err != nil {
		return 0, err
	}
	info, err := t.cl.Stat(h)
	return info.Size, err
}

func (t *wireTarget) remove(key int, path string) error {
	delete(t.handles, key)
	return t.cl.Remove(path)
}

func (t *wireTarget) truncate(key int, size int64) error {
	h, err := t.handle(key)
	if err != nil {
		return err
	}
	return t.cl.Truncate(h, uint64(size))
}

// Latency classes of the end-to-end metrics.
const (
	classRead = iota
	classWrite
	classMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta"}

func classOf(k workload.OpKind) int {
	switch k {
	case workload.OpRead:
		return classRead
	case workload.OpWrite, workload.OpAppend:
		return classWrite
	}
	return classMeta // create, stat, delete, truncate
}

// worker is one load goroutine: its target, the content oracle of the
// files it owns, and its measurements.
type worker struct {
	prof   workload.Profile
	tgt    target
	gen    *payloadGen
	oracle map[int][]byte
	wbuf   []byte
	rbuf   []byte

	// lat holds op latencies in ns by class and by the second of the
	// timed phase the op started in.
	lat       [numClasses][][]int64
	start     time.Time // start of the timed phase
	bytesW    int64
	attempted int64
	failed    int64
	err       error

	// mutateRead, when set, is applied to every read result before the
	// content check (tests use it to prove the check can fail).
	mutateRead func([]byte)
}

func newWorker(prof workload.Profile, tgt target, gen *payloadGen) *worker {
	return &worker{prof: prof, tgt: tgt, gen: gen, oracle: map[int][]byte{}}
}

// do executes one op: its payload is generated before the call is timed,
// and its content check runs after.
func (w *worker) do(o op) error {
	key := o.key(w.prof)
	path := w.prof.Path(int(o.tenant), int(o.file))
	var payload []byte
	if o.kind == workload.OpWrite || o.kind == workload.OpAppend {
		if cap(w.wbuf) < int(o.size) {
			w.wbuf = make([]byte, o.size)
		}
		payload = w.wbuf[:o.size]
		w.gen.fill(payload, int(o.tenant), int(o.file), o.vers)
	}
	start := time.Now()
	var err error
	var got []byte
	var size int64
	switch o.kind {
	case workload.OpCreate:
		err = w.tgt.create(key, path)
	case workload.OpWrite, workload.OpAppend:
		err = w.tgt.write(key, payload, int64(o.off))
	case workload.OpRead:
		if cap(w.rbuf) < int(o.size) {
			w.rbuf = make([]byte, o.size)
		}
		got, err = w.tgt.read(key, w.rbuf[:o.size], int64(o.off))
	case workload.OpStat:
		size, err = w.tgt.stat(key)
	case workload.OpDelete:
		err = w.tgt.remove(key, path)
	case workload.OpTruncate:
		err = w.tgt.truncate(key, int64(o.size))
	default:
		err = fmt.Errorf("unknown op kind %d", o.kind)
	}
	end := time.Now()
	w.attempted++
	if err != nil {
		return fmt.Errorf("%v %s: %w", o.kind, path, err)
	}
	c, win := classOf(o.kind), int(start.Sub(w.start)/time.Second)
	for len(w.lat[c]) <= win {
		w.lat[c] = append(w.lat[c], nil)
	}
	w.lat[c][win] = append(w.lat[c][win], end.Sub(start).Nanoseconds())

	switch o.kind {
	case workload.OpCreate:
		w.oracle[key] = []byte{}
	case workload.OpWrite, workload.OpAppend:
		w.bytesW += int64(len(payload))
		w.oracle[key] = writeInto(w.oracle[key], payload, int64(o.off))
	case workload.OpRead:
		if w.mutateRead != nil {
			w.mutateRead(got)
		}
		want := w.oracle[key]
		end := int64(o.off) + int64(o.size)
		if int64(len(got)) != int64(o.size) || end > int64(len(want)) {
			return fmt.Errorf("read %s@%d: got %d bytes, oracle size %d, want %d",
				path, o.off, len(got), len(want), o.size)
		}
		if !bytes.Equal(got, want[o.off:end]) {
			return fmt.Errorf("read %s@%d: content differs from the oracle", path, o.off)
		}
	case workload.OpStat:
		if want := int64(len(w.oracle[key])); size != want {
			return fmt.Errorf("stat %s: size %d, oracle %d", path, size, want)
		}
	case workload.OpDelete:
		delete(w.oracle, key)
	case workload.OpTruncate:
		cur := w.oracle[key]
		if int64(o.size) <= int64(len(cur)) {
			w.oracle[key] = cur[:o.size]
		} else {
			w.oracle[key] = append(cur, make([]byte, int64(o.size)-int64(len(cur)))...)
		}
	}
	return nil
}

// writeInto applies a write to an oracle buffer. A gap between the old end
// and off reads as zeros, also when a truncate left old bytes in the
// buffer's capacity.
func writeInto(cur, p []byte, off int64) []byte {
	if need := off + int64(len(p)); int64(len(cur)) < need {
		if int64(cap(cur)) >= need {
			old := len(cur)
			cur = cur[:need]
			clear(cur[old:])
		} else {
			grown := make([]byte, need, need+need/2)
			copy(grown, cur)
			cur = grown
		}
	}
	copy(cur[off:], p)
	return cur
}

// closedLoop issues ops back to back until the deadline or the end of the
// worker's part of the trace.
func (w *worker) closedLoop(ops []op, start, deadline time.Time) {
	w.start = start
	for _, o := range ops {
		if !time.Now().Before(deadline) {
			return
		}
		if err := w.do(o); err != nil {
			w.fail(err)
			return
		}
	}
}

func (w *worker) fail(err error) {
	w.failed++
	if w.err == nil {
		w.err = err
	}
}

// completed is the number of ops that succeeded.
func (w *worker) completed() int64 {
	var n int64
	for _, wins := range w.lat {
		for _, l := range wins {
			n += int64(len(l))
		}
	}
	return n
}

// oracleBytes is the DRAM the oracle holds.
func (w *worker) oracleBytes() int64 {
	var n int64
	for _, b := range w.oracle {
		n += int64(cap(b))
	}
	return n
}
