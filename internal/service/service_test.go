package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"falcon/internal/datagen"
	"falcon/internal/model"
	"falcon/internal/table"
)

// submitBody builds a multipart submission from two tables.
func submitBody(t *testing.T, a, b *table.Table, fields map[string]string) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	addTable := func(field string, tb *table.Table) {
		fw, err := mw.CreateFormFile(field, tb.Name+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.WriteCSV(fw); err != nil {
			t.Fatal(err)
		}
	}
	addTable("tableA", a)
	addTable("tableB", b)
	for k, v := range fields {
		mw.WriteField(k, v)
	}
	mw.Close()
	return &buf, mw.FormDataContentType()
}

// songsWithKey builds a Songs dataset and appends a hidden match-key column
// the service's oracle can use.
func songsWithKey(n int, seed int64) (*table.Table, *table.Table) {
	d := datagen.Songs(n, seed)
	addKey := func(src *table.Table, isA bool) *table.Table {
		cols := append(src.Schema.Names(), "match_key")
		out := table.New(src.Name, table.NewSchema(cols...))
		for i := 0; i < src.Len(); i++ {
			key := ""
			if isA {
				key = fmt.Sprintf("k%d", i)
			} else {
				for p := range d.Truth {
					if p.B == i {
						key = fmt.Sprintf("k%d", p.A)
						break
					}
				}
				if key == "" {
					key = fmt.Sprintf("b%d", i)
				}
			}
			out.Append(append(append([]string(nil), src.Tuples[i].Values...), key)...)
		}
		out.InferTypes()
		return out
	}
	return addKey(d.A, true), addKey(d.B, false)
}

func newTestServer() *httptest.Server {
	return httptest.NewServer(New(Synchronous(), WithClock(func() time.Time {
		return time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	})))
}

func postJob(t *testing.T, ts *httptest.Server, a, b *table.Table, fields map[string]string) (string, *http.Response) {
	t.Helper()
	body, ctype := submitBody(t, a, b, fields)
	resp, err := http.Post(ts.URL+"/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return out["id"], resp
}

func TestHealthz(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestSubmitAndFetchLifecycle(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	a, b := songsWithKey(120, 3)
	id, _ := postJob(t, ts, a, b, map[string]string{
		"oracle_key": "match_key",
		"seed":       "4",
		"sample":     "1500",
		"max_iter":   "6",
	})

	// Status.
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}
	if job.Matches == 0 || job.CrowdCost <= 0 {
		t.Fatalf("summary empty: %+v", job)
	}

	// Matches CSV.
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/matches")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "a_row,b_row" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines)-1 != job.Matches {
		t.Fatalf("csv rows %d != summary matches %d", len(lines)-1, job.Matches)
	}

	// The model is a model-only artifact: it loads, without a B table.
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/model")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("model Content-Type = %q", ct)
	}
	m, err := model.LoadArtifact(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("model endpoint: %v", err)
	}
	if m.Matcher == nil {
		t.Fatal("model missing matcher")
	}
	if m.B != nil {
		t.Fatal("model endpoint served the serving payload")
	}

	// List.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("list = %+v", jobs)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	a, b := songsWithKey(30, 5)

	// Missing oracle_key.
	body, ctype := submitBody(t, a, b, nil)
	resp, _ := http.Post(ts.URL+"/jobs", ctype, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing key: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown oracle_key column.
	body, ctype = submitBody(t, a, b, map[string]string{"oracle_key": "nope"})
	resp, _ = http.Post(ts.URL+"/jobs", ctype, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad numeric field.
	body, ctype = submitBody(t, a, b, map[string]string{"oracle_key": "match_key", "budget": "lots"})
	resp, _ = http.Post(ts.URL+"/jobs", ctype, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad budget: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing file.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("oracle_key", "match_key")
	mw.Close()
	resp, _ = http.Post(ts.URL+"/jobs", mw.FormDataContentType(), &buf)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing file: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestUnknownJob(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	for _, path := range []string{"/jobs/nope", "/jobs/nope/matches", "/jobs/nope/model"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestFailedJobReportsError(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	a, b := songsWithKey(120, 7)
	// Five-cent budget forces a budget failure.
	id, _ := postJob(t, ts, a, b, map[string]string{
		"oracle_key": "match_key",
		"budget":     "0.05",
		"sample":     "1500",
		"max_iter":   "6",
	})
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if job.State != StateFailed || job.Error == "" {
		t.Fatalf("job = %+v, want failed with error", job)
	}
	// Matches endpoint refuses.
	resp, _ = http.Get(ts.URL + "/jobs/" + id + "/matches")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("matches on failed job: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestAsyncJobEventuallyCompletes(t *testing.T) {
	// No Synchronous(): the job runs in a goroutine and the client polls.
	ts := httptest.NewServer(New())
	defer ts.Close()
	a, b := songsWithKey(60, 11)
	id, _ := postJob(t, ts, a, b, map[string]string{
		"oracle_key": "match_key",
		"sample":     "800",
		"max_iter":   "4",
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		switch job.State {
		case StateDone:
			if job.Matches == 0 {
				t.Fatal("async job found nothing")
			}
			return
		case StateFailed:
			t.Fatalf("async job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestConcurrentSubmitAndPollNoTornSnapshots is the race-detector
// regression test for the service: several clients POST jobs to an
// asynchronous server while pollers hammer the list, status, and matches
// endpoints. Every observed snapshot must be internally consistent — a
// torn snapshot (summary fields visible before the state flips to done,
// or a done job missing its summary) means job state escaped s.mu.
// Run with -race to make the handler/worker interleavings count.
func TestConcurrentSubmitAndPollNoTornSnapshots(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	a, b := songsWithKey(50, 13)

	const jobs = 3
	type posted struct {
		body  *bytes.Buffer
		ctype string
	}
	reqs := make([]posted, jobs)
	for i := range reqs {
		body, ctype := submitBody(t, a, b, map[string]string{
			"oracle_key": "match_key",
			"seed":       fmt.Sprint(i + 1),
			"sample":     "600",
			"max_iter":   "3",
		})
		reqs[i] = posted{body, ctype}
	}

	// Goroutines must not call t.Fatal; violations funnel through errc.
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	checkJob := func(j Job) {
		switch j.State {
		case StatePending, StateRunning:
			if j.Matches != 0 || j.Strategy != "" || j.CrowdCost != 0 || j.TotalTime != 0 {
				report("torn snapshot: summary fields set while %s: %+v", j.State, j)
			}
		case StateDone:
			if j.Strategy == "" || j.TotalTime == 0 {
				report("torn snapshot: done job missing summary: %+v", j)
			}
		case StateFailed:
			if j.Error == "" {
				report("failed job carries no error: %+v", j)
			}
		default:
			report("unknown job state %q", j.State)
		}
	}

	// Submit all jobs concurrently.
	idc := make(chan string, jobs)
	var submitWG sync.WaitGroup
	for i := range reqs {
		submitWG.Add(1)
		go func(p posted) {
			defer submitWG.Done()
			resp, err := http.Post(ts.URL+"/jobs", p.ctype, p.body)
			if err != nil {
				report("submit: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				report("submit status %d", resp.StatusCode)
				return
			}
			var out map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				report("submit decode: %v", err)
				return
			}
			idc <- out["id"]
		}(reqs[i])
	}

	// Pollers hammer list + status + matches while the workers run.
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/jobs")
				if err != nil {
					report("list: %v", err)
					return
				}
				var list []Job
				if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
					report("list decode: %v", err)
				}
				resp.Body.Close()
				for _, j := range list {
					checkJob(j)
					mr, err := http.Get(ts.URL + "/jobs/" + j.ID + "/matches")
					if err != nil {
						report("matches: %v", err)
						continue
					}
					raw, _ := io.ReadAll(mr.Body)
					mr.Body.Close()
					switch mr.StatusCode {
					case http.StatusOK:
						rows := len(strings.Split(strings.TrimSpace(string(raw)), "\n")) - 1
						if j.State == StateDone && rows != j.Matches {
							report("matches csv rows %d != snapshot matches %d", rows, j.Matches)
						}
					case http.StatusConflict:
						// job not done at serve time: expected mid-run
					default:
						report("matches status %d", mr.StatusCode)
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	submitWG.Wait()
	close(idc)
	var ids []string
	for id := range idc {
		ids = append(ids, id)
	}

	// Wait until every job reaches a terminal state, checking each
	// snapshot on the way.
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			resp, err := http.Get(ts.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var j Job
			if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			checkJob(j)
			if j.State == StateDone || j.State == StateFailed {
				if j.State == StateFailed {
					t.Fatalf("job %s failed: %s", id, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in state %s", id, j.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	close(stop)
	pollWG.Wait()

	if len(ids) != jobs {
		t.Fatalf("only %d/%d jobs submitted", len(ids), jobs)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
