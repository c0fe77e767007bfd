// Package server is the DENOVA network serving layer: a TCP front-end
// exposing the NFS-like stateless op set defined by internal/server/wire
// against one mounted denova.FS.
//
// Design (modelled on NFS v3 serving):
//
//   - Stateless ops. LOOKUP/CREATE resolve a path once to a stable 64-bit
//     handle (inode identity); all data ops address the handle. The server
//     keeps no per-connection open-file table, so any worker can execute
//     any request and a reconnecting client keeps its handles.
//
//   - Pipelining. A connection may have many requests in flight; responses
//     carry the client's request id and may arrive out of order across
//     files. Per-file order is preserved: the scheduler partitions requests
//     by handle (path ops by path hash) onto a fixed worker pool, and each
//     worker drains its queue FIFO.
//
//   - Admission control. A global in-flight cap plus bounded per-worker
//     queues; when either would overflow, the request is shed immediately
//     with StatusRetry instead of queueing without bound. Sheds, admissions
//     and per-op latency histograms (serve.op.<name>) are recorded in the
//     FS's obs registry, so denovactl top and /metrics see serving and
//     dedup behavior side by side.
package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/wire"
)

// Config tunes the serving layer. The zero value picks sane defaults.
type Config struct {
	// Workers is the size of the op worker pool. Default:
	// min(GOMAXPROCS, 8).
	Workers int
	// MaxInflight caps admitted-but-uncompleted requests across all
	// connections; beyond it new requests are shed with StatusRetry.
	// Default 256.
	MaxInflight int
	// QueueDepth bounds each worker's queue; a full queue sheds with
	// StatusRetry rather than blocking the connection reader. Default 64.
	QueueDepth int
	// ReaddirPage caps the entries returned per READDIR page; the client
	// follows the response's next cookie for the rest. A page is further
	// bounded by the frame byte budget regardless of this count. Default
	// 1024.
	ReaddirPage int
	// ExecDelay, when set, is consulted per request and the returned
	// duration slept inside the execution window (counted by the serve.op
	// histogram and the serve.exec span). Test hook for injecting slow
	// requests; nil in production.
	ExecDelay func(req *wire.Request) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ReaddirPage <= 0 {
		c.ReaddirPage = 1024
	}
	return c
}

// counters are the server's counts, registered in the FS registry by New.
// Inflight and Conns are the only in-flight and connection counts:
// admission compares against the value Inflight.Add returns. They live
// apart from the Server so the registry, which outlives a closed server,
// does not keep its sessions and handle table reachable.
type counters struct {
	Inflight  obs.Gauge   `metric:"serve.inflight"`
	Conns     obs.Gauge   `metric:"serve.conns"`
	Admitted  obs.Counter `metric:"serve.admitted"`
	Shed      obs.Counter `metric:"serve.shed"`
	ProtoErrs obs.Counter `metric:"serve.proto_errors"`
}

// Server serves one mounted FS over TCP. Create with New, start with
// Start, stop with Close.
type Server struct {
	fs  *denova.FS
	cfg Config

	ln     net.Listener
	queues []chan task
	closed atomic.Bool

	ctr        *counters
	opHists    []*obs.Histogram
	workerWG   sync.WaitGroup
	connWG     sync.WaitGroup
	acceptDone chan struct{}

	tracer       *obs.Tracer    // the FS tracer; spans no-op at TraceOff
	tenants      tenantCounters // per-tenant op/byte/shed counters
	handleTenant sync.Map       // denova.Handle -> uint16 tenant id

	mu       sync.Mutex
	sessions map[*session]struct{}
}

// New builds a server around a mounted FS. The FS must outlive the server.
func New(fs *denova.FS, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		fs:       fs,
		cfg:      cfg,
		sessions: make(map[*session]struct{}),
		ctr:      new(counters),
	}
	reg := fs.Registry()
	reg.RegisterFields(s.ctr)
	s.opHists = make([]*obs.Histogram, wire.OpCommit+1)
	for _, op := range wire.Ops() {
		s.opHists[op] = reg.Histogram("serve.op." + op.String())
	}
	s.tracer = fs.Tracer()
	return s
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port), spawns
// the worker pool and the accept loop, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.queues = make([]chan task, s.cfg.Workers)
	for i := range s.queues {
		s.queues[i] = make(chan task, s.cfg.QueueDepth)
		s.workerWG.Add(1)
		go s.worker(s.queues[i])
	}
	s.acceptDone = make(chan struct{})
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down: stop accepting, close every connection,
// wait for session goroutines, then drain and stop the worker pool. Safe
// to call once; the FS itself is left mounted.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
		<-s.acceptDone
	}
	s.mu.Lock()
	for sess := range s.sessions {
		sess.close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	// No readers remain, so no new tasks can be enqueued: closing the
	// queues lets each worker finish its backlog and exit.
	for _, q := range s.queues {
		close(q)
	}
	s.workerWG.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(c)
		}()
	}
}

// session is one client connection: a reader goroutine (frames → admission
// → scheduler) and a writer goroutine (response frames → socket). Workers
// hand finished responses to the writer via out; done unblocks them when
// the connection dies so a dead client can never wedge the pool.
type session struct {
	conn      net.Conn
	out       chan outFrame
	done      chan struct{}
	closeOnce sync.Once
}

// outFrame is one finished response heading to the writer goroutine,
// carrying the span state the writer needs to close the request's root
// span at the moment the reply actually leaves. All span fields are zero
// for untraced requests, so the writer does no extra work at TraceOff.
type outFrame struct {
	frame   []byte
	sc      obs.SpanContext // server-side root span of the request
	parent  uint64          // client's span id (0: client sent no context)
	op      wire.Op
	handle  uint64
	arrival time.Time // frame decoded on the reader goroutine
	wstart  time.Time // response handed to the writer (reply span start)
}

func (sess *session) close() {
	sess.closeOnce.Do(func() {
		close(sess.done)
		sess.conn.Close()
	})
}

// send enqueues a response frame, dropping it if the session is gone.
func (sess *session) send(of outFrame) {
	select {
	case sess.out <- of:
	case <-sess.done:
	}
}

func (s *Server) handleConn(c net.Conn) {
	sess := &session{
		conn: c,
		out:  make(chan outFrame, s.cfg.QueueDepth),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.ctr.Conns.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.ctr.Conns.Add(-1)
	}()

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for {
			select {
			case of := <-sess.out:
				if err := wire.WriteFrame(c, of.frame); err != nil {
					sess.close()
					return
				}
				if of.sc.Valid() {
					// Close the request's spans only once the reply has hit
					// the socket: the reply span covers writer-queue + write,
					// the root serve.op.<name> span covers arrival → reply
					// and is what the slow-op capture judges.
					now := time.Now()
					s.tracer.EmitSpan(obs.OpServeReply, s.tracer.StartChild(of.sc), of.sc.Span,
						of.handle, uint64(len(of.frame)), of.wstart, now.Sub(of.wstart))
					total := now.Sub(of.arrival)
					s.tracer.EmitSpan(wireOpSpan[of.op], of.sc, of.parent,
						of.handle, uint64(len(of.frame)), of.arrival, total)
					s.tracer.JudgeSlow(of.sc, total)
				}
			case <-sess.done:
				return
			}
		}
	}()

	s.readLoop(sess)
	sess.close()
	writerWG.Wait()
}

// readLoop decodes frames and either sheds or schedules them. A framing or
// decode error is a protocol violation: without a trustworthy request id
// there is nothing to respond to, so the connection is dropped.
func (s *Server) readLoop(sess *session) {
	for {
		payload, err := wire.ReadFrame(sess.conn)
		if err != nil {
			return // EOF, connection closed, or hostile length word
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			s.ctr.ProtoErrs.Inc()
			return
		}
		s.dispatch(sess, req)
	}
}

// dispatch applies admission control and routes the request to its worker.
// Every request is attributed to a tenant (0 = unattributed) and, when
// tracing is on, opens a server root span — adopting the client's trace id
// from the wire extension when one arrived, minting a fresh one otherwise.
func (s *Server) dispatch(sess *session, req *wire.Request) {
	tenant := s.tenantOf(req)
	ts := s.tenants.get(s, tenant)
	ts.ops.Inc()
	if req.Op == wire.OpWrite {
		ts.bytes.Add(int64(len(req.Data)))
	}
	sc := s.tracer.Adopt(req.Trace, tenant)
	var arrival time.Time
	if sc.Valid() {
		arrival = time.Now()
	}
	if n := s.ctr.Inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.ctr.Inflight.Add(-1)
		ts.shed.Inc()
		s.shedReq(sess, req, sc, arrival, "server at max in-flight ops")
		return
	}
	q := s.queues[shardKey(req)%uint64(len(s.queues))]
	t := task{sess: sess, req: req, sc: sc, arrival: arrival}
	if sc.Valid() {
		t.enqueued = time.Now()
	}
	select {
	case q <- t:
		s.ctr.Admitted.Inc()
		if sc.Valid() {
			s.tracer.EmitSpan(obs.OpServeAdmit, s.tracer.StartChild(sc), sc.Span,
				uint64(req.Handle), uint64(req.Op), arrival, t.enqueued.Sub(arrival))
		}
	default:
		s.ctr.Inflight.Add(-1)
		ts.shed.Inc()
		s.shedReq(sess, req, sc, arrival, "worker queue full")
	}
}

// shedReq answers a request with StatusRetry without consuming a worker.
// A traced shed still closes its root span (with the shed reason's tiny
// duration), so per-tenant shed storms are visible in traces too.
func (s *Server) shedReq(sess *session, req *wire.Request, sc obs.SpanContext, arrival time.Time, why string) {
	s.ctr.Shed.Inc()
	frame, err := wire.EncodeResponse(&wire.Response{
		ID: req.ID, Op: req.Op, Status: wire.StatusRetry, Msg: why,
	})
	if err != nil {
		return // cannot happen: fixed-shape response
	}
	of := outFrame{frame: frame}
	if sc.Valid() {
		of.sc, of.parent, of.op = sc, req.Span, req.Op
		of.handle = uint64(req.Handle)
		of.arrival, of.wstart = arrival, time.Now()
	}
	sess.send(of)
}

// shardKey partitions requests so that all ops against one object land on
// one worker (preserving per-file order): handle ops key on the handle,
// path ops on a hash of the path. COMMIT keys to 0 — it drains the global
// dedup pipeline, so any fixed worker serializes concurrent commits.
func shardKey(req *wire.Request) uint64 {
	switch req.Op {
	case wire.OpRead, wire.OpWrite, wire.OpTruncate, wire.OpStat:
		return uint64(req.Handle)
	case wire.OpCommit:
		return 0
	default:
		return fnv64a(req.Path)
	}
}

// fnv64a is FNV-1a; inlined to keep the hot dispatch path allocation-free.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
