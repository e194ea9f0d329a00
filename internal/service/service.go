// Package service implements the EM-as-a-cloud-service front end the paper
// motivates (Example 1): users submit two tables and a crowdsourcing
// budget over HTTP; the service runs the hands-off EM workflow in the
// backend and serves the matches, the run report, and the learned model.
//
// Endpoints:
//
//	POST   /jobs            multipart form: tableA, tableB (CSV files),
//	                        oracle_key, budget, error_rate, seed, sample,
//	                        max_iter → {"id": ...}
//	GET    /jobs            list job summaries
//	GET    /jobs/{id}       status + report
//	DELETE /jobs/{id}       cancel a pending/running job
//	GET    /jobs/{id}/matches   matched row pairs as CSV
//	GET    /jobs/{id}/model     the learned model as a model-only artifact
//	GET    /jobs/{id}/artifact  the complete serving artifact
//	                        (both in the versioned binary format)
//	POST   /artifacts       train synchronously and publish for serving
//	PUT    /artifacts/current   load a binary artifact and swap it in
//	GET    /artifacts/current   published artifact metadata
//	POST   /match/one       {"record": {col: val}} → matches from the
//	                        frozen B table (lock-free serving path)
//	GET    /version         artifact layout version + build info
//	GET    /healthz         liveness
//
// The demo crowd is simulated from the oracle_key column (with optional
// worker error); a production deployment would swap in a crowd.Platform
// that posts real HITs.
package service

import (
	"cmp"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/learn"
	"falcon/internal/serve"
	"falcon/internal/table"
)

// State is a job's lifecycle phase.
type State string

// Job states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job tracks one submitted EM task.
type Job struct {
	ID        string    `json:"id"`
	State     State     `json:"state"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`

	// Summary fields, populated when done.
	Matches      int           `json:"matches"`
	Candidates   int           `json:"candidates"`
	UsedBlocking bool          `json:"used_blocking"`
	Strategy     string        `json:"strategy,omitempty"`
	CrowdCost    float64       `json:"crowd_cost"`
	Questions    int           `json:"questions"`
	CrowdTime    time.Duration `json:"crowd_time_ns"`
	MachineTime  time.Duration `json:"machine_time_ns"`
	TotalTime    time.Duration `json:"total_time_ns"`

	a, b   *table.Table
	result *core.Result
	cancel context.CancelFunc
}

// Server is the HTTP EM service.
type Server struct {
	mux     *http.ServeMux
	now     func() time.Time
	sync    bool // run jobs synchronously (tests)
	timeout time.Duration
	run     runFunc

	// reg publishes the serving bundle for POST /match/one; swaps are
	// atomic, so match requests never block on artifact reloads.
	reg serve.Registry

	mu   sync.Mutex
	jobs map[string]*Job
	next int
}

// runFunc executes the EM pipeline; tests substitute a controllable one.
type runFunc func(ctx context.Context, a, b *table.Table, oracle learn.Oracle, opt core.Options) (*core.Result, error)

// Option configures the server.
type Option func(*Server)

// Synchronous makes job execution block the POST (deterministic tests).
func Synchronous() Option {
	return func(s *Server) { s.sync = true }
}

// WithClock overrides the submission timestamp source.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithJobTimeout bounds each job's wall-clock runtime; a job past the
// deadline is cancelled and reported as failed. Zero means no limit.
func WithJobTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// withRunFunc substitutes the pipeline (tests).
func withRunFunc(fn runFunc) Option {
	return func(s *Server) { s.run = fn }
}

// New builds the service.
func New(opts ...Option) *Server {
	s := &Server{
		mux:  http.NewServeMux(),
		jobs: map[string]*Job{},
		now:  time.Now,
		run:  core.RunContext,
	}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/matches", s.handleMatches)
	s.mux.HandleFunc("GET /jobs/{id}/model", s.handleModel)
	s.mux.HandleFunc("GET /jobs/{id}/artifact", s.handleJobArtifact)
	s.mux.HandleFunc("POST /artifacts", s.handleArtifactBuild)
	s.mux.HandleFunc("PUT /artifacts/current", s.handleArtifactLoad)
	s.mux.HandleFunc("GET /artifacts/current", s.handleArtifactInfo)
	s.mux.HandleFunc("POST /match/one", s.handleMatchOne)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Encode/write errors after the response has started mean the client went
// away; there is nothing useful left to do with them, so the JSON and CSV
// writers below discard them explicitly.

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// submitParams parses the numeric knobs of a submission.
type submitParams struct {
	oracleKey string
	budget    float64
	errRate   float64
	seed      int64
	sampleN   int
	maxIter   int
}

func parseParams(r *http.Request) (submitParams, error) {
	p := submitParams{oracleKey: strings.TrimSpace(r.FormValue("oracle_key")), seed: 1}
	if p.oracleKey == "" {
		return p, fmt.Errorf("oracle_key is required (the demo crowd simulates from it)")
	}
	parseF := func(name string, into *float64) error {
		if v := r.FormValue(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*into = f
		}
		return nil
	}
	parseI := func(name string, into *int) error {
		if v := r.FormValue(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*into = n
		}
		return nil
	}
	if err := parseF("budget", &p.budget); err != nil {
		return p, err
	}
	if err := parseF("error_rate", &p.errRate); err != nil {
		return p, err
	}
	if v := r.FormValue("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed: %v", err)
		}
		p.seed = n
	}
	if err := parseI("sample", &p.sampleN); err != nil {
		return p, err
	}
	if err := parseI("max_iter", &p.maxIter); err != nil {
		return p, err
	}
	return p, nil
}

// acceptSubmission parses a multipart job submission, registers the job,
// and returns it with its ready-to-call run closure. ok=false means the
// HTTP error response was already written.
func (s *Server) acceptSubmission(w http.ResponseWriter, r *http.Request) (job *Job, params submitParams, run func(), ok bool) {
	if err := r.ParseMultipartForm(64 << 20); err != nil {
		httpError(w, http.StatusBadRequest, "parsing form: %v", err)
		return nil, params, nil, false
	}
	params, err := parseParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, params, nil, false
	}
	readTable := func(field string) (*table.Table, error) {
		f, hdr, err := r.FormFile(field)
		if err != nil {
			return nil, fmt.Errorf("missing file %q", field)
		}
		defer f.Close()
		return table.ReadCSV(f, hdr.Filename)
	}
	a, err := readTable("tableA")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, params, nil, false
	}
	b, err := readTable("tableB")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, params, nil, false
	}
	if a.Schema.Col(params.oracleKey) < 0 || b.Schema.Col(params.oracleKey) < 0 {
		httpError(w, http.StatusBadRequest, "oracle_key %q not in both tables", params.oracleKey)
		return nil, params, nil, false
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}

	s.mu.Lock()
	s.next++
	job = &Job{
		ID:        fmt.Sprintf("job-%d", s.next),
		State:     StatePending,
		Submitted: s.now(),
		a:         a,
		b:         b,
		cancel:    cancel,
	}
	s.jobs[job.ID] = job
	s.mu.Unlock()

	run = func() {
		defer cancel()
		s.runJob(ctx, job, params)
	}
	return job, params, run, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job, _, run, ok := s.acceptSubmission(w, r)
	if !ok {
		return
	}
	if s.sync {
		run()
	} else {
		go run()
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": job.ID})
}

// runJob executes the EM pipeline for a submitted job.
func (s *Server) runJob(ctx context.Context, job *Job, p submitParams) {
	s.setState(job, StateRunning, "")
	aKey := job.a.Schema.Col(p.oracleKey)
	bKey := job.b.Schema.Col(p.oracleKey)
	oracle := func(pair table.Pair) bool {
		av := strings.TrimSpace(strings.ToLower(job.a.Value(pair.A, aKey)))
		bv := strings.TrimSpace(strings.ToLower(job.b.Value(pair.B, bKey)))
		return av != "" && av == bv
	}

	opt := core.DefaultOptions()
	opt.Seed = p.seed
	opt.Budget = p.budget
	opt.Platform = crowd.NewRandomWorkers(p.errRate, 0, p.seed+1)
	if p.sampleN > 0 {
		opt.SampleN = p.sampleN
	}
	if p.maxIter > 0 {
		opt.ALIterations = p.maxIter
	}

	res, err := s.run(ctx, job.a, job.b, oracle, opt)
	switch {
	case errors.Is(err, context.Canceled):
		s.setState(job, StateCancelled, "cancelled by client")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.setState(job, StateFailed, fmt.Sprintf("timed out after %s", s.timeout))
		return
	case err != nil:
		s.setState(job, StateFailed, err.Error())
		return
	}
	s.mu.Lock()
	job.result = res
	job.State = StateDone
	job.Matches = len(res.Matches)
	job.Candidates = len(res.Candidates)
	job.UsedBlocking = res.UsedBlocking
	job.Strategy = res.Strategy.String()
	job.CrowdCost = res.Cost
	job.Questions = res.Questions
	job.CrowdTime = res.Timeline.CrowdTime
	job.MachineTime = res.Timeline.MachineTime
	job.TotalTime = res.Timeline.Total
	s.mu.Unlock()
}

func (s *Server) setState(job *Job, st State, errMsg string) {
	s.mu.Lock()
	job.State = st
	job.Error = errMsg
	s.mu.Unlock()
}

// snapshot copies a job's public state under the lock so handlers can
// serialize it while the worker goroutine keeps mutating the original. The
// result pointer is immutable once the state reaches done.
func (s *Server) snapshot(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	s.mu.Unlock()
	// Stable order by numeric suffix: IDs are "job-<n>", so shorter IDs sort
	// first and equal lengths compare lexically ("job-9" before "job-10").
	slices.SortFunc(out, func(a, b Job) int {
		if c := cmp.Compare(len(a.ID), len(b.ID)); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	writeJSON(w, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, job)
}

// handleCancel cancels a pending or running job. The job's context is
// cancelled immediately; the pipeline stops at its next task boundary and
// the state flips to cancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var state State
	var cancel context.CancelFunc
	if ok {
		state = job.State
		cancel = job.cancel
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if state != StatePending && state != StateRunning {
		httpError(w, http.StatusConflict, "job is %s", state)
		return
	}
	cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": job.ID, "state": string(StateCancelled)})
}

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if job.State != StateDone {
		httpError(w, http.StatusConflict, "job is %s", job.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"a_row", "b_row"})
	for _, m := range job.result.Matches {
		_ = cw.Write([]string{strconv.Itoa(m.A), strconv.Itoa(m.B)})
	}
	cw.Flush()
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if job.State != StateDone || job.result.Artifact == nil {
		httpError(w, http.StatusConflict, "job is %s or has no model", job.State)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = job.result.Artifact.SaveModel(w)
}
