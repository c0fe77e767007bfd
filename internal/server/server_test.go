package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"denova"
	"denova/internal/server/client"
	"denova/internal/server/wire"
)

func startServer(t *testing.T, cfg Config, mode denova.Mode, prof denova.LatencyProfile) (*denova.FS, *Server, string) {
	t.Helper()
	fs, err := denova.Mkfs(denova.NewDevice(128<<20, prof), denova.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(fs, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		fs.Unmount()
	})
	return fs, srv, addr
}

// TestServeInflightIdle checks that serve.inflight and serve.conns return
// to zero once a client's requests have completed and it has hung up: the
// gauges are the server's only in-flight and connection counts, so they
// follow every admission, completion and disconnect.
func TestServeInflightIdle(t *testing.T) {
	fs, _, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := bytes.Repeat([]byte{byte(g)}, 4096)
			for i := 0; i < 16; i++ {
				if _, err := c.Write(h, uint64(g*16+i)*4096, page); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := c.Read(h, 0, 4096); err != nil {
		t.Fatal(err)
	}
	// A worker releases its in-flight slot right after handing the reply
	// to the session writer, so the gauge may trail the client by a moment.
	settle := func(name string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			v := fs.Metrics().Gauges[name]
			if v == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d after the client went idle, want 0", name, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle("serve.inflight")
	c.Close()
	settle("serve.conns")
}

// TestClosedServerCollectable checks that registering the server's
// counters in the FS registry, which lives as long as the FS, does not keep
// a closed server (its sessions and handle table) reachable.
func TestClosedServerCollectable(t *testing.T) {
	fs, err := denova.Mkfs(denova.NewDevice(32<<20, denova.ProfileZero), denova.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	collected := make(chan struct{})
	func() {
		srv := New(fs, Config{})
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(srv, func(*Server) { close(collected) })
		srv.Close()
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed server still reachable after 50 GCs")
}

// TestServeEndToEnd drives every op through the client over loopback and
// checks results, error taxonomy, and the serve.op.* metrics.
func TestServeEndToEnd(t *testing.T) {
	fs, srv, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("dir"); err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("dir/file")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("denova"), 1000)
	if n, err := c.Write(h, 0, payload); err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got, err := c.Read(h, 0, uint32(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	// Short read at EOF, not an error.
	tail, err := c.Read(h, uint64(len(payload))-3, 100)
	if err != nil || len(tail) != 3 {
		t.Fatalf("eof read = %d bytes, %v", len(tail), err)
	}
	info, err := c.Stat(h)
	if err != nil || info.Size != int64(len(payload)) || info.IsDir {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	lh, linfo, err := c.Lookup("dir/file")
	if err != nil || lh != h || linfo.Size != int64(len(payload)) {
		t.Fatalf("lookup = %#x %+v, %v (create handle %#x)", lh, linfo, err, h)
	}
	names, err := c.Readdir("dir")
	if err != nil || len(names) != 1 || names[0] != "file" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if err := c.Truncate(h, 10); err != nil {
		t.Fatal(err)
	}
	if info, err = c.Stat(h); err != nil || info.Size != 10 {
		t.Fatalf("post-truncate stat = %+v, %v", info, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// The error taxonomy survives the wire: sentinels are errors.Is-able on
	// the client side.
	if _, err := c.Create("dir/file"); !errors.Is(err, denova.ErrExists) {
		t.Errorf("create existing = %v, want ErrExists", err)
	}
	if _, _, err := c.Lookup("missing"); !errors.Is(err, denova.ErrNotFound) {
		t.Errorf("lookup missing = %v, want ErrNotFound", err)
	}
	if _, err := c.Readdir("dir/file"); !errors.Is(err, denova.ErrNotDir) {
		t.Errorf("readdir file = %v, want ErrNotDir", err)
	}
	if _, _, err := c.Lookup("a//b"); !errors.Is(err, denova.ErrInvalid) {
		t.Errorf("lookup malformed = %v, want ErrInvalid", err)
	}
	dh, _, err := c.Lookup("dir")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(dh, 0, []byte("x")); !errors.Is(err, denova.ErrIsDir) {
		t.Errorf("write to dir = %v, want ErrIsDir", err)
	}
	if err := c.Remove("dir/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(h); !errors.Is(err, denova.ErrStaleHandle) {
		t.Errorf("stat removed = %v, want ErrStaleHandle", err)
	}

	// Server op latencies are visible in the FS's own registry.
	snap := fs.Registry().Snapshot()
	for _, op := range []string{"lookup", "create", "read", "write", "stat", "commit"} {
		st, ok := snap.Histograms["serve.op."+op]
		if !ok || st.Count == 0 {
			t.Errorf("serve.op.%s histogram missing or empty", op)
		}
	}
	if snap.Counters["serve.admitted"] == 0 {
		t.Error("serve.admitted counter empty")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// rawConn speaks the wire protocol directly (no client conveniences), for
// tests that need control over pipelining and response consumption.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(req *wire.Request) uint64 {
	r.t.Helper()
	r.id++
	req.ID = r.id
	frame, err := wire.EncodeRequest(req)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := wire.WriteFrame(r.conn, frame); err != nil {
		r.t.Fatal(err)
	}
	return req.ID
}

func (r *rawConn) recv() *wire.Response {
	r.t.Helper()
	payload, err := wire.ReadFrame(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// TestServePipeliningPerFileOrder pipelines many writes to one file without
// waiting for responses; per-file FIFO scheduling must apply them in send
// order, so the final read sees the last write.
func TestServePipeliningPerFileOrder(t *testing.T) {
	_, _, addr := startServer(t, Config{Workers: 4}, denova.ModeImmediate, denova.ProfileZero)
	rc := dialRaw(t, addr)

	rc.send(&wire.Request{Op: wire.OpCreate, Path: "f"})
	resp := rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v %s", resp.Status, resp.Msg)
	}
	h := resp.Handle

	const rounds = 64
	sent := make(map[uint64]bool)
	for i := 0; i < rounds; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 512)
		sent[rc.send(&wire.Request{Op: wire.OpWrite, Handle: h, Off: 0, Data: data})] = true
	}
	for i := 0; i < rounds; i++ {
		resp := rc.recv()
		if !sent[resp.ID] {
			t.Fatalf("unexpected response id %d", resp.ID)
		}
		delete(sent, resp.ID)
		if resp.Status != wire.StatusOK {
			t.Fatalf("write %d: %v %s", resp.ID, resp.Status, resp.Msg)
		}
	}
	rc.send(&wire.Request{Op: wire.OpRead, Handle: h, Size: 512})
	resp = rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("read: %v %s", resp.Status, resp.Msg)
	}
	want := bytes.Repeat([]byte{rounds - 1}, 512)
	if !bytes.Equal(resp.Data, want) {
		t.Fatalf("final content = %v..., want all %d (writes reordered)", resp.Data[:4], rounds-1)
	}
}

// TestServeAdmissionShedding drowns a tiny server (1 worker, in-flight cap
// 2) in pipelined requests behind one slow write; the overflow must come
// back as StatusRetry, never queue without bound, and the shed counter must
// tick. The client-level retry loop then shows the same storm succeeding
// end to end.
func TestServeAdmissionShedding(t *testing.T) {
	fs, _, addr := startServer(t,
		Config{Workers: 1, MaxInflight: 2, QueueDepth: 2},
		denova.ModeImmediate, denova.ProfileOptane)
	rc := dialRaw(t, addr)

	rc.send(&wire.Request{Op: wire.OpCreate, Path: "slow"})
	resp := rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v %s", resp.Status, resp.Msg)
	}
	h := resp.Handle

	// One 2 MiB write occupies the only worker for a while (simulated PM
	// latency), then a burst of stats outruns the in-flight cap.
	const burst = 64
	rc.send(&wire.Request{Op: wire.OpWrite, Handle: h, Data: make([]byte, 2<<20)})
	for i := 0; i < burst; i++ {
		rc.send(&wire.Request{Op: wire.OpStat, Handle: h})
	}
	var shed, ok int
	for i := 0; i < burst+1; i++ {
		switch resp := rc.recv(); resp.Status {
		case wire.StatusOK:
			ok++
		case wire.StatusRetry:
			shed++
		default:
			t.Fatalf("unexpected status %v: %s", resp.Status, resp.Msg)
		}
	}
	if shed == 0 {
		t.Fatal("no requests shed despite in-flight cap 2 and burst of 64")
	}
	if ok == 0 {
		t.Fatal("no requests admitted")
	}
	if got := fs.Registry().Snapshot().Counters["serve.shed"]; got == 0 {
		t.Error("serve.shed counter empty")
	}

	// The client's retry loop absorbs sheds: the same storm through the
	// real client completes with zero surfaced errors.
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Stat(h); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client stat under shed storm: %v", err)
	}
}

// TestServeConcurrentClients runs many clients against many files at once
// and verifies each file's content independently (cross-file parallelism
// with per-file integrity).
func TestServeConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			path := fmt.Sprintf("file-%d", g)
			h, err := c.Create(path)
			if err != nil {
				errs <- err
				return
			}
			want := bytes.Repeat([]byte{byte(g + 1)}, 8192)
			for off := 0; off < len(want); off += 1024 {
				if _, err := c.Write(h, uint64(off), want[off:off+1024]); err != nil {
					errs <- err
					return
				}
			}
			got, err := c.Read(h, 0, uint32(len(want)))
			if err != nil || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: read mismatch (%d bytes, %v)", g, len(got), err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeProtocolErrorDropsConn: a malformed frame kills the connection
// (no id to answer) but not the server.
func TestServeProtocolErrorDropsConn(t *testing.T) {
	_, _, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Valid length word, garbage payload (invalid op 0xEE).
	bad := []byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xEE}
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("expected connection drop after protocol error")
	}
	conn.Close()

	// Server still serves fresh connections.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("alive"); err != nil {
		t.Fatal(err)
	}
}
