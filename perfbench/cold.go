package main

import (
	"fmt"
	"net/http"
	"time"
)

// cold: one client issues sequential cold canonical runs, cycling through
// the four families, each with a seed no earlier request used, so nothing
// hits the cache or coalesces. Almost all of the time is spent in the
// simulator stack (apps -> core -> routing/primitives -> congest).
type coldRunner struct {
	in   *inputs
	svc  *service
	part *partition
	pass int // passes run so far; pass p uses the seeds derived from p
	// rounds and messages of the latest pass, per family
	rounds   map[string]int
	messages map[string]int64
}

func setupCold(in *inputs, rec *recorder) (runner, error) {
	svc, err := startService(in.spec)
	if err != nil {
		return nil, err
	}
	c := &coldRunner{in: in, svc: svc, rounds: map[string]int{}, messages: map[string]int64{}}
	if c.part, _ = observe(svc, rec, nil, 0, in.ref, -1, in.spec.Eps, 1); c.part == nil {
		svc.stop()
		return nil, fmt.Errorf("observing the initial decomposition failed")
	}
	// Warm-up: one cold walkroute run on a seed the measured phase never
	// uses, so the first measured request finds the connection open.
	if !svc.warmUp(rec, "/query/walkroute", query{Seed: in.derive("warmup", 0)}.body()) {
		svc.stop()
		return nil, fmt.Errorf("warm-up query failed")
	}
	return c, nil
}

func (c *coldRunner) workKinds() []string { return c.latencyKinds() }

func (c *coldRunner) latencyKinds() []string {
	kinds := make([]string, 0, len(checkedFamilies))
	for _, f := range checkedFamilies {
		kinds = append(kinds, "cold."+f)
	}
	return kinds
}

func (c *coldRunner) measure(d time.Duration, rec *recorder, tr *tracer) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); c.pass++ {
		for i, fam := range checkedFamilies {
			c.coldQuery(rec, tr, fam, c.in.derive("cold", len(checkedFamilies)*c.pass+i))
		}
	}
}

func (c *coldRunner) coldQuery(rec *recorder, tr *tracer, fam string, seed int64) {
	kind := "cold." + fam
	op := tr.begin("op."+kind, 0)
	defer tr.end(op)
	sp := tr.begin("http.query."+fam, op)
	rp, ok := c.svc.call(rec, kind, http.MethodPost, "/query/"+fam, query{Seed: seed}.body())
	tr.end(sp)
	if !ok {
		return
	}
	sp = tr.begin("check."+fam, op)
	defer tr.end(sp)
	env, res, err := decodeEnvelope(rp.body)
	if err == nil && env.Cached {
		err = fmt.Errorf("a fresh seed was served from the cache")
	}
	if err == nil {
		err = checkFamily(res, c.in.ref, c.part, queryEps, c.in.maximum)
	}
	if err == nil {
		c.rounds[fam], c.messages[fam] = res.Accounting.Rounds, res.Accounting.Messages
	}
	rec.checkReply(kind, rp, err)
}

func (c *coldRunner) notes() []string {
	var out []string
	total, msgs := 0, int64(0)
	for _, f := range checkedFamilies {
		out = append(out, fmt.Sprintf("sim %s: %d rounds, %d messages", f, c.rounds[f], c.messages[f]))
		total += c.rounds[f]
		msgs += c.messages[f]
	}
	return append(out, fmt.Sprintf("sim pass: %d rounds, %d messages", total, msgs))
}

func (c *coldRunner) service() *service { return c.svc }

func (c *coldRunner) close() { c.svc.stop() }
