package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// hot: nproc clients issue cache-hit reads against one snapshot. The keys
// are filled during set-up; per family one reads the full result and one
// a vertex projection, so the two encoded variants the cache keeps for a
// canonical run (full and trimmed) are read equally often. All of the work
// is in serve (decode, cache lookup, projection, envelope, net/http write)
// and none in the simulator.
//
// The repository defines no projection traffic (cmd/loadgen reads full
// results only). A projection of hotProjSize vertices is small: its cost is
// mostly the splice of the trimmed cached bytes, not the selection.
type hotRunner struct {
	svc     *service
	keys    []hotKey
	clients int
	qps     float64 // hits per second in the last measured phase
}

// hotKey is one request of the key mix.
type hotKey struct {
	kind string
	path string
	body []byte
	ref  hitRef // the key's first hit, checked in full
}

const hotProjSize = 16 // vertices per projection

func setupHot(in *inputs, rec *recorder) (runner, error) {
	svc, err := startService(in.spec)
	if err != nil {
		return nil, err
	}
	h := &hotRunner{svc: svc, clients: runtime.NumCPU()}
	if err := h.fill(in, rec); err != nil {
		svc.stop()
		return nil, err
	}
	return h, nil
}

// fill runs each family's canonical run, checks it, and takes each key's
// reference answer from its first hit, checked in full.
func (h *hotRunner) fill(in *inputs, rec *recorder) error {
	part, epoch := observe(h.svc, rec, nil, 0, in.ref, -1, in.spec.Eps, 1)
	if part == nil {
		return fmt.Errorf("observing the initial decomposition failed")
	}
	for fi, fam := range checkedFamilies {
		seed := in.derive("hot", fi)
		path := "/query/" + fam
		rp, ok := h.svc.call(rec, "fill."+fam, http.MethodPost, path, query{Seed: seed}.body())
		if !ok {
			return fmt.Errorf("filling %s failed with status %d", fam, rp.status)
		}
		env, full, err := decodeEnvelope(rp.body)
		if err == nil && env.Cached {
			err = fmt.Errorf("a fresh seed was served from the cache")
		}
		if err == nil {
			err = checkFamily(full, in.ref, part, queryEps, in.maximum)
		}
		rec.checkReply("fill."+fam, rp, err)
		if err != nil {
			return fmt.Errorf("filling %s: %w", fam, err)
		}
		vs := in.vertices("hot-proj", fi, hotProjSize, in.g.N())
		proj := query{Seed: seed, Vertices: vs}
		if fam == "walkroute" {
			proj = query{Seed: seed, Sources: vs}
		}
		for _, k := range []hotKey{
			{kind: "hit." + fam, path: path, body: query{Seed: seed}.body()},
			{kind: "hit." + fam + ".proj", path: path, body: proj.body()},
		} {
			kind := "ref." + k.kind
			rp, ok := h.svc.call(rec, kind, http.MethodPost, path, k.body)
			if !ok {
				return fmt.Errorf("the first %s failed with status %d", k.kind, rp.status)
			}
			hit, _, err := decodeEnvelope(rp.body)
			switch {
			case err != nil:
			case k.kind == "hit."+fam:
				err = checkHit(hit, epoch, env.Result)
			default:
				if err = checkCached(hit, epoch); err == nil {
					err = checkSelection(hit, full, vs)
				}
			}
			if err == nil {
				k.ref.head, k.ref.tail, err = splitTook(rp.body)
			}
			rec.checkReply(kind, rp, err)
			if err != nil {
				return fmt.Errorf("the first %s: %w", k.kind, err)
			}
			h.keys = append(h.keys, k)
		}
	}
	return nil
}

func (h *hotRunner) workKinds() []string { return h.latencyKinds() }

func (h *hotRunner) latencyKinds() []string {
	kinds := make([]string, 0, 2*len(checkedFamilies))
	for _, f := range checkedFamilies {
		kinds = append(kinds, "hit."+f, "hit."+f+".proj")
	}
	return kinds
}

// measure runs the clients in closed loop; each makes whole passes over
// the key mix, starting at its own offset, and reads every answer into its
// own buffer.
func (h *hotRunner) measure(d time.Duration, rec *recorder, tr *tracer) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg   sync.WaitGroup
		hits atomic.Int64
	)
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				for i := range h.keys {
					h.hit(rec, tr, &h.keys[(offset+i)%len(h.keys)], &buf)
				}
				hits.Add(int64(len(h.keys)))
			}
		}(c * len(h.keys) / h.clients)
	}
	wg.Wait()
	h.qps = float64(hits.Load()) / time.Since(start).Seconds()
}

func (h *hotRunner) hit(rec *recorder, tr *tracer, k *hotKey, buf *bytes.Buffer) {
	op := tr.begin("op."+k.kind, 0)
	defer tr.end(op)
	sp := tr.begin("http.query.hit", op)
	rp, ok := h.svc.callInto(rec, k.kind, http.MethodPost, k.path, k.body, buf)
	tr.end(sp)
	if !ok {
		return
	}
	sp = tr.begin("check.hit", op)
	defer tr.end(sp)
	rec.checkReply(k.kind, rp, checkHitBytes(rp.body, k.ref))
}

func (h *hotRunner) notes() []string {
	return []string{fmt.Sprintf("%d clients over %d keys, %.0f hits/s", h.clients, len(h.keys), h.qps)}
}

func (h *hotRunner) service() *service { return h.svc }

func (h *hotRunner) close() { h.svc.stop() }
