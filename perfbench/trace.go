package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"hetmem/internal/server"
	"hetmem/internal/wire"
)

// Tracing: the traced run times calls into each layer's public
// interface from outside the program. Every request is a set of nested
// spans — the client call, the handler (a wrapped http.Handler or
// wire.Handler), the Backend (a timed server.Backend behind
// server.NewWireBackend or server.NewAPI) and, behind the router, the
// member's handler — that share the identifier the request already
// carries: the buffer name "b<N>" for an alloc, the lease ID for the
// rest. Spans stay in memory and are joined when the run ends.

const (
	layerClient uint8 = iota
	layerHandler
	layerBackend
	layerMember
	layerPlacement
)

type span struct {
	start, end int64
	// key is the buffer's name number for an alloc, else the lease.
	key uint64
	// lease is the lease an alloc was granted, when the layer sees it.
	lease  uint64
	layer  uint8
	op     uint8
	member uint8
}

// recorder keeps spans in a ring of fixed size: recording allocates
// nothing, and a long run keeps its latest spans.
type recorder struct {
	base  time.Time
	spans []span
	mask  int64
	n     atomic.Int64
}

func newRecorder(size int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, size), mask: int64(size - 1)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	i := r.n.Add(1) - 1
	r.spans[i&r.mask] = s
}

func (r *recorder) count() int {
	if n := r.n.Load(); n < int64(len(r.spans)) {
		return int(n)
	}
	return len(r.spans)
}

// timedBackend is the Backend seam: it times the data-plane calls of
// the Backend it wraps. delay, set only by the package tests, is spent
// inside the Alloc span.
type timedBackend struct {
	server.Backend
	rec   *recorder
	delay time.Duration
}

func (t *timedBackend) Alloc(ctx context.Context, req server.AllocRequest) (server.AllocResponse, error) {
	s := t.rec.now()
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	resp, err := t.Backend.Alloc(ctx, req)
	t.rec.add(span{start: s, end: t.rec.now(), key: nameID(req.Name), lease: resp.Lease, layer: layerBackend, op: uint8(opAlloc)})
	return resp, err
}

func (t *timedBackend) Free(ctx context.Context, req server.FreeRequest) (server.FreeResponse, error) {
	s := t.rec.now()
	resp, err := t.Backend.Free(ctx, req)
	t.rec.add(span{start: s, end: t.rec.now(), key: req.Lease, layer: layerBackend, op: uint8(opFree)})
	return resp, err
}

func (t *timedBackend) Renew(ctx context.Context, req server.RenewRequest) (server.RenewResponse, error) {
	s := t.rec.now()
	resp, err := t.Backend.Renew(ctx, req)
	t.rec.add(span{start: s, end: t.rec.now(), key: req.Lease, layer: layerBackend, op: uint8(opRenew)})
	return resp, err
}

func (t *timedBackend) Migrate(ctx context.Context, req server.MigrateRequest) (server.MigrateResponse, error) {
	s := t.rec.now()
	resp, err := t.Backend.Migrate(ctx, req)
	t.rec.add(span{start: s, end: t.rec.now(), key: req.Lease, layer: layerBackend, op: uint8(opMigrate)})
	return resp, err
}

var httpOps = map[string]opKind{
	"/v1/alloc": opAlloc, "/v1/free": opFree, "/v1/renew": opRenew, "/v1/migrate": opMigrate,
}

var wireOps = map[wire.Op]opKind{
	wire.OpAlloc: opAlloc, wire.OpFree: opFree, wire.OpRenew: opRenew, wire.OpMigrate: opMigrate,
}

// spanHandler times an http.Handler's data-plane requests. It reads
// the body first (the handler would) to find the request's key, and
// keeps the head of an alloc's response to find the granted lease.
type spanHandler struct {
	h      http.Handler
	rec    *recorder
	layer  uint8
	member uint8
}

type headWriter struct {
	http.ResponseWriter
	head []byte
}

func (w *headWriter) Write(p []byte) (int, error) {
	if room := 128 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	return w.ResponseWriter.Write(p)
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, ok := httpOps[r.URL.Path]
	if !ok {
		s.h.ServeHTTP(w, r)
		return
	}
	start := s.rec.now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	hw := &headWriter{ResponseWriter: w}
	s.h.ServeHTTP(hw, r)
	sp := span{start: start, end: s.rec.now(), key: bodyKey(op, body), layer: s.layer, op: uint8(op), member: s.member}
	if op == opAlloc {
		sp.lease = jsonUint(hw.head, `"lease":`)
	}
	s.rec.add(sp)
}

// spanWire times a wire.Handler's data-plane requests.
type spanWire struct {
	h   wire.Handler
	rec *recorder
}

func (s *spanWire) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	k, ok := wireOps[op]
	if !ok {
		return s.h.ServeWire(ctx, op, tenant, body, dst)
	}
	start := s.rec.now()
	status, out := s.h.ServeWire(ctx, op, tenant, body, dst)
	sp := span{start: start, end: s.rec.now(), key: bodyKey(k, body), layer: layerHandler, op: uint8(k)}
	if k == opAlloc {
		sp.lease = jsonUint(out[len(dst):], `"lease":`)
	}
	s.rec.add(sp)
	return status, out
}

// switchHTTP and switchWire let one listener serve the production
// handler in the untraced phase and the wrapped one in the traced
// phase.
type switchHTTP struct{ cur atomic.Pointer[http.Handler] }

func newSwitchHTTP(h http.Handler) *switchHTTP {
	s := &switchHTTP{}
	s.set(h)
	return s
}

func (s *switchHTTP) set(h http.Handler) { s.cur.Store(&h) }
func (s *switchHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.cur.Load()).ServeHTTP(w, r)
}

type switchWire struct{ cur atomic.Pointer[wire.Handler] }

func newSwitchWire(h wire.Handler) *switchWire {
	s := &switchWire{}
	s.set(h)
	return s
}

func (s *switchWire) set(h wire.Handler) { s.cur.Store(&h) }
func (s *switchWire) ServeWire(ctx context.Context, op wire.Op, tenant string, body, dst []byte) (int, []byte) {
	return (*s.cur.Load()).ServeWire(ctx, op, tenant, body, dst)
}

// bodyKey finds a request's key in its JSON body: the name number of
// an alloc, the lease of anything else.
func bodyKey(op opKind, body []byte) uint64 {
	if op != opAlloc {
		return jsonUint(body, `"lease":`)
	}
	i := bytes.Index(body, []byte(`"name":"b`))
	if i < 0 {
		return 0
	}
	return leadingUint(body[i+len(`"name":"b`):])
}

func jsonUint(b []byte, field string) uint64 {
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		return 0
	}
	return leadingUint(bytes.TrimLeft(b[i+len(field):], " "))
}

func leadingUint(b []byte) uint64 {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	v, _ := strconv.ParseUint(string(b[:n]), 10, 64)
	return v
}

// chain is one request's spans from the client down, as far as they
// were recorded.
type chain struct {
	op                               opKind
	client, handler, backend, member *span
}

type spanKey struct {
	layer, op uint8
	key       uint64
}

// joinSpans links each client span to the handler span inside it, that
// to the Backend span inside it, and that to the member handler span
// inside it. Spans with the same key never overlap in time — each
// client owns its leases and runs one request at a time — so the key
// and containment pick the child. memberKey maps a member's own lease
// to the key the client used (the router's lease); nil when requests
// reach no member.
func joinSpans(spans []span, memberKey func(member uint8, lease uint64) (uint64, bool)) []chain {
	idx := make(map[spanKey][]int32)
	for i := range spans {
		s := &spans[i]
		if s.layer == layerClient {
			continue
		}
		k := spanKey{s.layer, s.op, s.key}
		if s.layer == layerMember && opKind(s.op) != opAlloc && memberKey != nil {
			rk, ok := memberKey(s.member, s.key)
			if !ok {
				continue
			}
			k.key = rk
		}
		idx[k] = append(idx[k], int32(i))
	}
	for _, list := range idx {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].start < spans[list[b]].start })
	}
	inside := func(parent *span, layer uint8) *span {
		list := idx[spanKey{layer, parent.op, parent.key}]
		j := sort.Search(len(list), func(i int) bool { return spans[list[i]].start >= parent.start })
		if j < len(list) && spans[list[j]].end <= parent.end {
			return &spans[list[j]]
		}
		return nil
	}
	var out []chain
	for i := range spans {
		c := &spans[i]
		if c.layer != layerClient {
			continue
		}
		ch := chain{op: opKind(c.op), client: c}
		if ch.handler = inside(c, layerHandler); ch.handler != nil {
			if ch.backend = inside(ch.handler, layerBackend); ch.backend != nil {
				ch.member = inside(ch.backend, layerMember)
			}
		}
		out = append(out, ch)
	}
	return out
}

func dur(s *span) int64 { return s.end - s.start }

// p50Of reduces joined chains to the p50 of one difference per
// request, over the requests of one op for which f finds the spans.
func p50Of(chains []chain, op opKind, f func(c *chain) (int64, bool)) float64 {
	var h hist
	for i := range chains {
		c := &chains[i]
		if c.op != op {
			continue
		}
		if v, ok := f(c); ok && v >= 0 {
			h.record(uint64(v))
		}
	}
	return h.quantile(0.5)
}
