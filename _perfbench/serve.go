package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"falcon/internal/datagen"
	"falcon/internal/model"
	"falcon/internal/serve"
	"falcon/internal/service"
	"falcon/internal/table"
)

// serveConns is the closed-loop client count: one keep-alive connection
// per core of the 2-core reference box.
const serveConns = 2

// server is an in-process service on a loopback listener.
type server struct {
	srv  *service.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(art *model.MatcherArtifact) (*server, error) {
	srv := service.New()
	if err := srv.Publish(art); err != nil {
		return nil, fmt.Errorf("publishing artifact: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// trainSummary is what the serve run reports about its fixture's training.
type trainSummary struct {
	crowdUSD   float64
	questions  int
	simTotal   time.Duration
	candidates int
}

// serveState is everything the serve-products run reads after set-up.
type serveState struct {
	art      *model.MatcherArtifact
	artBytes []byte
	trained  trainSummary
	bodies   [][]byte // POST /match/one body per A row
	records  [][]string
	ref      [][]int // batch ApplyContext matches: B rows per A row
	refPairs []table.Pair
	truth    map[table.Pair]bool
	srv      *server
}

// loadClient posts requests over serveConns keep-alive connections.
type loadClient struct {
	url    string
	client *http.Client
}

func newLoadClient(url string) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true}
	return &loadClient{url: url, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *loadClient) close() { c.client.CloseIdleConnections() }

// matchOne posts one record and returns the matched B rows.
func (c *loadClient) matchOne(body []byte) ([]int, error) {
	resp, err := c.client.Post(c.url+"/match/one", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /match/one: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var out struct {
		Matches []struct {
			BRow int `json:"b_row"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decoding /match/one reply: %w", err)
	}
	rows := make([]int, len(out.Matches))
	for i, m := range out.Matches {
		rows[i] = m.BRow
	}
	return rows, nil
}

// swap hot-swaps the served artifact with PUT /artifacts/current.
func (c *loadClient) swap(artifact []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.url+"/artifacts/current", bytes.NewReader(artifact))
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) // the status decides; the body only explains a failure
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT /artifacts/current: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return nil
}

// passStats accumulates the closed-loop passes.
type passStats struct {
	latencies []float64 // seconds; +Inf for a failed request
	ok        int
	lastPairs []table.Pair
}

// passResult is what one pass's requests returned, indexed by A row.
type passResult struct {
	got  [][]int
	lat  []float64
	errs []error
}

func newPassResult(n int) *passResult {
	return &passResult{got: make([][]int, n), lat: make([]float64, n), errs: make([]error, n)}
}

// pass posts every A row once, in an order permuted by the workload seed
// and the pass number, from serveConns closed-loop clients. Each request
// gets a span under parent.
func (r *run) pass(st *serveState, c *loadClient, passNo int, parent int, pr *passResult) {
	n := len(st.bodies)
	order := rand.New(rand.NewSource(r.seed*1_000_003 + int64(passNo))).Perm(n)
	got, lat, errs := pr.got, pr.lat, pr.errs
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				row := order[k]
				id := r.tr.start("POST /match/one", parent)
				s := time.Now()
				got[row], errs[row] = c.matchOne(st.bodies[row])
				lat[row] = time.Since(s).Seconds()
				r.tr.end(id)
			}
		}()
	}
	wg.Wait()
}

// checkPass accounts a pass's requests in ps and checks each answer against
// batch ApplyContext.
func (r *run) checkPass(st *serveState, pr *passResult, ps *passStats) {
	got, lat, errs := pr.got, pr.lat, pr.errs
	n := len(got)
	var pairs []table.Pair
	for row := 0; row < n; row++ {
		r.attempted++
		if errs[row] != nil {
			r.failed++
			ps.latencies = append(ps.latencies, math.Inf(1))
			r.gate(false, "A row %d: %v", row, errs[row])
			continue
		}
		ps.ok++
		ps.latencies = append(ps.latencies, lat[row])
		if !sameRows(got[row], st.ref[row]) {
			r.gate(false, "A row %d: served B rows %v, batch ApplyContext %v", row, got[row], st.ref[row])
		}
		for _, b := range got[row] {
			pairs = append(pairs, table.Pair{A: row, B: b})
		}
	}
	ps.lastPairs = pairs
}

// sameRows reports whether got holds the B rows of want, which is sorted;
// it sorts got in place.
func sameRows(got, want []int) bool {
	slices.Sort(got)
	return slices.Equal(got, want)
}

func serveProducts(r *run) error {
	st := &serveState{}
	defer func() {
		if st.srv != nil {
			_ = st.srv.stop() // a failing run already reports its error
		}
	}()
	err := r.setup(func(int) error {
		if st.srv != nil {
			if err := st.srv.stop(); err != nil {
				return err
			}
			st.srv = nil
		}
		return r.tr.do("setup", 0, func(id int) error { return r.serveSetup(st, id) })
	})
	if err != nil {
		return err
	}
	r.shape["table_a"], r.shape["table_b"] = len(st.bodies), st.art.B.Len()
	r.shape["questions"] = st.trained.questions
	r.shape["sim_total_h"] = st.trained.simTotal.Hours()
	r.shape["prefix_indexes"] = len(st.art.Prefix)
	r.shape["candidates"] = st.trained.candidates
	r.shape["matches"] = len(st.refPairs)
	r.shape["connections"] = serveConns
	r.e2e("crowd_usd", st.trained.crowdUSD, "usd")
	r.e2e("artifact_mib", float64(len(st.artBytes))/(1<<20), "MiB")

	c := newLoadClient(st.srv.url)
	defer c.close()
	budget := r.phaseBudget()
	readBudget := budget * 4 / 5
	var ps passStats
	pr := newPassResult(len(st.bodies))
	passOp := func(ps *passStats, passNo int) phaseOp {
		return phaseOp{run: func(i, parent int) error {
			r.pass(st, c, passNo+i, parent, pr)
			return nil
		}, check: func(int, int) error {
			r.checkPass(st, pr, ps)
			return nil
		}}
	}
	passes, err := r.untracedPhase(readBudget, 3, passOp(&ps, 0))
	if err != nil {
		return err
	}
	r.e2e("serve_qps", float64(ps.ok)/sum(walls(passes)), "1/s")
	r.e2e("serve_p50_ms", 1e3*quantile(ps.latencies, 0.50), "ms")
	r.e2e("serve_p99_ms", 1e3*quantile(ps.latencies, 0.99), "ms")
	r.shape["requests"] = len(ps.latencies)
	score := f1(ps.lastPairs, st.truth)
	r.gate(score >= minF1, "served F1 %.4f below %.2f", score, minF1)
	r.e2e("f1", score, "ratio")

	// Hot swaps: the write path beside the read path, measured alone.
	swaps, err := measure(budget-readBudget, 3, func(int) error {
		r.attempted++
		if err := c.swap(st.artBytes); err != nil {
			r.failed++
			return err
		}
		return nil
	}, nil)
	if err != nil {
		return fmt.Errorf("hot swap: %w", err)
	}
	r.e2e("swap_s", median(walls(swaps)), "s")
	r.shape["swaps"] = len(swaps)
	rows, err := c.matchOne(st.bodies[0])
	if err != nil || !sameRows(rows, st.ref[0]) {
		r.gate(false, "after hot swaps, A row 0 served %v (%v), batch %v", rows, err, st.ref[0])
	}

	if !r.traced {
		return nil
	}
	httpP50 := quantile(ps.latencies, 0.50)
	var tps passStats
	if _, err := r.tracedPhase(median(walls(passes)), 1, passOp(&tps, 1000)); err != nil {
		return err
	}
	return r.inProcess(st, httpP50)
}

// serveSetup trains the fixture, releases the training state, loads the
// artifact, computes the batch reference and starts the service.
func (r *run) serveSetup(st *serveState, parent int) error {
	var d *datagen.Dataset
	_ = r.tr.do("datagen.Products", parent, func(int) error {
		d = datagen.Products(productsScale, productsDataSeed)
		return nil
	})
	fixture, err := r.train(d, rowKeyLabeler(d), parent)
	if err != nil {
		return err
	}
	// Keep only figures from the report: it references the in-memory
	// artifact, which serving must not keep alive.
	rep := fixture.rep
	st.trained = trainSummary{crowdUSD: rep.CrowdCost, questions: rep.Questions, simTotal: rep.TotalTime, candidates: rep.CandidatePairs}
	st.artBytes = fixture.artifact
	st.truth = d.Truth
	names := d.A.Schema.Names()
	st.records = make([][]string, d.A.Len())
	st.bodies = make([][]byte, d.A.Len())
	for i, tu := range d.A.Tuples {
		st.records[i] = tu.Values
		rec := make(map[string]string, len(names))
		for j, n := range names {
			rec[n] = tu.Values[j]
		}
		b, err := json.Marshal(map[string]any{"record": rec})
		if err != nil {
			return err
		}
		st.bodies[i] = b
	}
	if st.art, err = r.loadArtifact(st.artBytes, parent); err != nil {
		return err
	}
	if err := r.tr.do("MatcherArtifact.ApplyContext", parent, func(int) error {
		m, _, err := st.art.ApplyContext(context.Background(), nil, d.A, d.B)
		st.refPairs = m
		return err
	}); err != nil {
		return fmt.Errorf("batch apply: %w", err)
	}
	st.ref = make([][]int, d.A.Len())
	for _, p := range st.refPairs {
		st.ref[p.A] = append(st.ref[p.A], p.B)
	}
	for _, rows := range st.ref {
		slices.Sort(rows)
	}
	releaseMemory()
	return r.tr.do("service.Publish", parent, func(int) error {
		var err error
		st.srv, err = startServer(st.art)
		return err
	})
}

// inProcess calls Bundle.MatchOne for every A row without HTTP, giving the
// per-request serving layer alone, and reports service.overhead_us against
// the HTTP median.
func (r *run) inProcess(st *serveState, httpP50 float64) error {
	var bn *serve.Bundle
	if err := r.tr.do("serve.NewBundle", 0, func(int) error {
		var err error
		bn, err = serve.NewBundle(st.art)
		return err
	}); err != nil {
		return fmt.Errorf("building bundle: %w", err)
	}
	lat := make([]float64, len(st.records))
	results := make([][]serve.Match, len(st.records))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for row, rec := range st.records {
		t0 := time.Now()
		ms, err := bn.MatchOne(rec)
		lat[row] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("MatchOne: %w", err)
		}
		results[row] = ms
	}
	runtime.ReadMemStats(&m1)
	matches := 0
	for row, ms := range results {
		matches += len(ms)
		rows := make([]int, len(ms))
		for i, m := range ms {
			rows[i] = m.BRow
		}
		if !sameRows(rows, st.ref[row]) {
			r.gate(false, "A row %d: MatchOne B rows %v, batch ApplyContext %v", row, rows, st.ref[row])
		}
	}
	n := float64(len(st.records))
	self := selfTimes(r.tr.snapshot())
	r.layer("serve.bundle_s", self["serve.NewBundle"], "s")
	r.layer("serve.matchone_p50_us", 1e6*quantile(lat, 0.50), "us")
	r.layer("serve.matchone_p99_us", 1e6*quantile(lat, 0.99), "us")
	r.layer("serve.matches_per_req", float64(matches)/n, "count")
	r.layer("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	r.layer("service.overhead_us", 1e6*(httpP50-quantile(lat, 0.50)), "us")
	r.layer("model.save_s", self["Report.SaveArtifact"]/float64(r.setupReps), "s")
	r.layer("model.load_s", self["model.LoadArtifact"]/float64(r.setupReps), "s")
	r.layer("model.artifact_bytes", float64(len(st.artBytes)), "bytes")
	return nil
}
