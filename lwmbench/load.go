package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"localwm/internal/obs"
)

// request is one HTTP call of a workload's fixed request list.
type request struct {
	name   string // stable label: kind plus input index
	kind   string // detect, embed, gembed, gdetect, put, get
	method string
	path   string
	// body returns the request body for a pass. Most requests send the
	// same bytes every pass; registry puts send a fresh design each pass.
	body func(pass int) []byte
	// check validates an answer after the timed window. perPass marks
	// checks that depend on the pass (fresh puts); the others are run
	// once per distinct answer.
	check   func(pass int, answer []byte) error
	perPass bool
	// roots is the candidate roots the expected detect answer scanned.
	roots int
}

// sample is one completed request.
type sample struct {
	req, pass int
	lat       time.Duration
	status    int
	sum       [32]byte
	err       error
	// Server-side stages from X-Lwm-Server-Timing (traced load only).
	queueWait, run time.Duration
	start          time.Time
	traceID        string
	// reqBytes and respBytes are the body sizes on the wire.
	reqBytes, respBytes int
}

// loadResult is one closed-loop run over whole passes of the list.
type loadResult struct {
	samples []sample
	passes  int
	wall    time.Duration
	// answers holds each distinct answer body once, by request and hash.
	answers map[answerKey][]byte
}

type answerKey struct {
	req int
	sum [32]byte
}

// minSamples is the fewest requests a run completes: enough that p90
// has ten samples beyond it.
const minSamples = 100

// runLoad drives the request list closed-loop: each of clients sends its
// next request only after the previous answer is read. Requests are
// handed out in list order; a new pass starts only while less than dur
// has elapsed or fewer than minSamples requests were sent, so the run
// always ends on a whole pass and every run sees the same request mix.
// traced adds X-Lwm-Trace-Id, which makes the daemon return its stage
// timings.
func runLoad(d *daemon, reqs []*request, clients int, dur time.Duration, passBase int, traced bool) *loadResult {
	res := &loadResult{answers: map[answerKey][]byte{}}
	var mu sync.Mutex
	next := 0
	stopped := false
	start := time.Now()
	draw := func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, 0, false
		}
		if next >= minSamples && next%len(reqs) == 0 && time.Since(start) >= dur {
			stopped = true
			res.passes = next / len(reqs)
			return 0, 0, false
		}
		i := next
		next++
		return i % len(reqs), passBase + i/len(reqs), true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				ri, pass, ok := draw()
				if !ok {
					return
				}
				r := reqs[ri]
				var hdr http.Header
				tid := ""
				if traced {
					tid = fmt.Sprintf("bench-%d-%d-%d", c, pass, ri)
					hdr = http.Header{obs.TraceHeader: []string{tid}}
				}
				var body []byte
				if r.body != nil {
					body = r.body(pass)
				}
				t0 := time.Now()
				status, out, h, err := d.call(r.method, r.path, body, hdr)
				s := sample{req: ri, pass: pass, lat: time.Since(t0), status: status, err: err, start: t0, traceID: tid,
					reqBytes: len(body), respBytes: len(out)}
				s.sum = sha256.Sum256(out)
				if traced && h != nil {
					s.queueWait, s.run = parseTiming(h.Get(obs.TimingHeader))
				}
				mu.Lock()
				res.samples = append(res.samples, s)
				k := answerKey{ri, s.sum}
				if _, seen := res.answers[k]; !seen && err == nil {
					res.answers[k] = out
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// parseTiming reads "queue_wait_ns=…;run_ns=…".
func parseTiming(v string) (queueWait, run time.Duration) {
	for _, kv := range strings.Split(v, ";") {
		k, val, _ := strings.Cut(kv, "=")
		ns, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "queue_wait_ns":
			queueWait = time.Duration(ns)
		case "run_ns":
			run = time.Duration(ns)
		}
	}
	return queueWait, run
}

// verify checks every sample's answer and returns the failures, keyed
// by request name, with one example error each.
func (res *loadResult) verify(reqs []*request) (failed int, firstErr map[string]error) {
	firstErr = map[string]error{}
	cache := map[answerKey]error{}
	for i := range res.samples {
		s := &res.samples[i]
		r := reqs[s.req]
		err := s.err
		if err == nil && s.status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", s.status, res.answers[answerKey{s.req, s.sum}])
		}
		if err == nil {
			k := answerKey{s.req, s.sum}
			if r.perPass {
				err = r.check(s.pass, res.answers[k])
			} else {
				cached, done := cache[k]
				if !done {
					cached = r.check(s.pass, res.answers[k])
					cache[k] = cached
				}
				err = cached
			}
		}
		if err != nil {
			s.err = err
			failed++
			if _, ok := firstErr[r.name]; !ok {
				firstErr[r.name] = err
			}
		}
	}
	return failed, firstErr
}
