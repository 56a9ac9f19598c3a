package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/study"
)

const (
	// quickCycles is how many result-only cold cycles cold_seed adds after
	// each full one: the result frame follows about 0.7 s of parallel
	// pipeline, whose median needs more samples than the full cycles give.
	quickCycles = 2
	// restarts is how many times cold_seed restarts the daemon on the store
	// each full cycle persisted. Restarting after every cycle, rather than
	// all at the end, spreads these short samples over the whole run.
	restarts = 10
	// pollInterval is how often cold_seed asks whether the snapshot is stored.
	pollInterval = 20 * time.Millisecond
)

// runColdSeed is the daemon's cold path: a fresh daemon on a fresh store
// answers a seed's event stream once the pipeline is done, then renders the
// full artifact set and persists it behind the answer. The daemon is then
// restarted on that store, and each restart's first report.html GET
// restores the snapshot. Each full cycle and its restarts are followed by
// quickCycles that stop at the result frame. Like reproduce it runs
// corpusSeed.
func runColdSeed(ctx context.Context, e *env) (*outcome, error) {
	// Oracle, before any clock: the library's own report.html.
	st, err := study.NewWithOptions(ctx, corpusSeed, study.Options{})
	if err != nil {
		return nil, err
	}
	html, err := st.HTMLReport(ctx)
	if err != nil {
		return nil, err
	}
	wantHTML := []byte(html)
	st = nil

	o := &outcome{}
	start := time.Now()
	for n := 0; n < minSamples || time.Since(start) < e.seconds; n++ {
		for quick := 0; quick <= quickCycles; quick++ {
			storeDir, d, t0, err := e.coldStream(ctx, o)
			if err != nil {
				return nil, err
			}
			if quick > 0 {
				// Its write-behind of the full set is not needed.
				e.kill(d)
				continue
			}
			stored, err := e.awaitStored(ctx, d.url, corpusSeed)
			if err != nil {
				return nil, err
			}
			o.check(true)
			o.waits[0] = append(o.waits[0], stored.Sub(t0).Seconds())
			heap, err := e.heapMB(ctx, d)
			if err != nil {
				return nil, err
			}
			o.heapMB = append(o.heapMB, heap)
			e.stop(d)
			if err := e.restartGets(ctx, storeDir, wantHTML, o); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// restartGets restarts the daemon restarts times on storeDir; each start is
// a set-up sample, and its first report.html GET must return wantHTML.
func (e *env) restartGets(ctx context.Context, storeDir string, wantHTML []byte, o *outcome) error {
	for i := 0; i < restarts; i++ {
		d, setup, err := e.start(ctx, "schemaevod-restart", "schemaevod", "-store-dir", storeDir)
		if err != nil {
			return err
		}
		o.setup = append(o.setup, setup.Seconds())
		t := time.Now()
		resp, body, err := e.get(ctx, fmt.Sprintf("%s/v1/seeds/%d/artifacts/report.html", d.url, corpusSeed))
		if err != nil {
			e.kill(d)
			return err
		}
		if o.check(resp.StatusCode == http.StatusOK && bytes.Equal(body, wantHTML)) {
			o.waits[2] = append(o.waits[2], time.Since(t).Seconds())
		}
		e.stop(d)
	}
	return nil
}

// coldStream starts a daemon on a fresh store and reads corpusSeed's event
// stream to its result frame, recording the set-up and the wait for the
// result. It returns the store, the running daemon and when the request
// started.
func (e *env) coldStream(ctx context.Context, o *outcome) (string, *proc, time.Time, error) {
	storeDir, err := e.freshDir("store")
	if err != nil {
		return "", nil, time.Time{}, err
	}
	d, setup, err := e.start(ctx, "schemaevod", "schemaevod", "-store-dir", storeDir)
	if err != nil {
		return "", nil, time.Time{}, err
	}
	o.setup = append(o.setup, setup.Seconds())
	t0 := time.Now()
	sse, err := e.streamSeed(ctx, d.url, corpusSeed)
	if err != nil {
		return "", nil, time.Time{}, err
	}
	if o.check(sse.ok()) {
		o.waits[1] = append(o.waits[1], sse.result.Seconds())
	} else {
		fmt.Fprintf(e.log, "benchpin: cold_seed: event stream failed its oracle: status %d, result %q, %d frames (result frame: %d), %d distinct seqs + %d dropped of %d, bad seq %v\n",
			sse.status, sse.outcome, sse.frames, sse.events, len(sse.seqs), sse.dropped, sse.maxSeq, sse.badSeq)
	}
	return storeDir, d, t0, nil
}

// awaitStored polls the seed's resource summary until it reports the
// snapshot stored, and returns when it first did.
func (e *env) awaitStored(ctx context.Context, base string, seed int64) (time.Time, error) {
	url := fmt.Sprintf("%s/v1/seeds/%d", base, seed)
	for {
		resp, body, err := e.get(ctx, url)
		if err != nil {
			return time.Time{}, err
		}
		var doc struct {
			Stored bool `json:"stored"`
		}
		if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &doc) == nil && doc.Stored {
			return time.Now(), nil
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("seed %d never stored: %w", seed, ctx.Err())
		case <-time.After(pollInterval):
		}
	}
}

// sseRun is what one read of a seed's event stream saw.
type sseRun struct {
	status     int
	firstFrame time.Duration // request start until the first stage frame
	result     time.Duration // request start until the result frame
	frames     int           // stage frames
	seqs       map[int64]bool
	maxSeq     int64
	badSeq     bool   // a malformed or repeated seq
	outcome    string // the result frame's status
	events     int64  // the result frame's count of frames sent
	dropped    int64  // the result frame's count of events dropped
}

// ok is the stream oracle: status 200, a result frame with status ok
// counting the frames that arrived, and every seq of the run delivered
// exactly once unless reported dropped. Seqs are numbered when a span
// starts or ends and published afterwards, so spans ending together on
// the pipeline's parallel workers may arrive out of order; order is not
// checked.
func (s *sseRun) ok() bool {
	return s.status == http.StatusOK && s.outcome == "ok" && !s.badSeq &&
		s.events == int64(s.frames) && int64(len(s.seqs))+s.dropped == s.maxSeq
}

// streamSeed reads GET /v1/seeds/{seed}/events until its result frame.
func (e *env) streamSeed(ctx context.Context, base string, seed int64) (*sseRun, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/seeds/%d/events", base, seed), nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	run := &sseRun{status: resp.StatusCode, seqs: map[int64]bool{}}
	if resp.StatusCode != http.StatusOK {
		return run, nil
	}
	rd := bufio.NewReader(resp.Body)
	var event, data string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("event stream of seed %d ended before its result frame: %w", seed, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id := strings.TrimPrefix(line, "id: ")
			seq, err := strconv.ParseInt(id[strings.LastIndexByte(id, ':')+1:], 10, 64)
			if err != nil || seq < 1 || run.seqs[seq] {
				run.badSeq = true
			}
			run.seqs[seq] = true
			run.maxSeq = max(run.maxSeq, seq)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "stage":
				if run.frames == 0 {
					run.firstFrame = time.Since(start)
				}
				run.frames++
			case "result":
				run.result = time.Since(start)
				var res struct {
					Status  string `json:"status"`
					Events  int64  `json:"events"`
					Dropped int64  `json:"dropped"`
				}
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					return nil, fmt.Errorf("result frame of seed %d: %w", seed, err)
				}
				run.outcome, run.events, run.dropped = res.Status, res.Events, res.Dropped
				return run, nil
			}
			event, data = "", ""
		}
	}
}
