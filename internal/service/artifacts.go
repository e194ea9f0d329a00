package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"

	"falcon/internal/model"
	"falcon/internal/serve"
)

// artifactInfo is the metadata view of a published (or downloadable)
// artifact.
type artifactInfo struct {
	ArtifactVersion int      `json:"artifact_version"`
	Features        int      `json:"features"`
	BlockingRules   int      `json:"blocking_rules"`
	PrefixIndexes   int      `json:"prefix_indexes"`
	Trees           int      `json:"trees"`
	BRows           int      `json:"b_rows"`
	TableA          string   `json:"table_a"`
	TableB          string   `json:"table_b"`
	Columns         []string `json:"columns"`
}

func infoOf(art *model.MatcherArtifact) artifactInfo {
	info := artifactInfo{
		ArtifactVersion: art.Version,
		Features:        len(art.FeatureNames),
		BlockingRules:   len(art.RuleSeq),
		PrefixIndexes:   len(art.Prefix),
		TableA:          art.AName,
	}
	if art.Matcher != nil {
		info.Trees = len(art.Matcher.Trees)
	}
	if art.B != nil {
		info.BRows = art.B.Len()
		info.TableB = art.B.Name
	}
	for _, at := range art.AAttrs {
		info.Columns = append(info.Columns, at.Name)
	}
	return info
}

// handleVersion reports the serving contract's layout version plus build
// information — what a client needs to decide whether its saved artifacts
// are loadable here.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"artifact_version": model.ArtifactVersion,
		"go":               runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out["module"] = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				out["revision"] = kv.Value
			}
		}
	}
	writeJSON(w, out)
}

// handleArtifactBuild trains an artifact synchronously from an uploaded
// table pair (same multipart form as POST /jobs) and publishes it for
// serving. The response is the published artifact's metadata.
func (s *Server) handleArtifactBuild(w http.ResponseWriter, r *http.Request) {
	job, _, run, ok := s.acceptSubmission(w, r)
	if !ok {
		return
	}
	// Run synchronously: an artifact build is a provisioning call, not an
	// interactive job. The job record keeps the run inspectable afterwards.
	run()
	snap, _ := s.snapshot(job.ID)
	if snap.State != StateDone {
		httpError(w, http.StatusUnprocessableEntity, "build %s: %s", snap.State, snap.Error)
		return
	}
	art := snap.result.Artifact
	if art == nil {
		httpError(w, http.StatusUnprocessableEntity, "run learned no matcher; nothing to serve")
		return
	}
	bn, err := serve.NewBundle(art)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.reg.Swap(bn)
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"id": job.ID, "artifact": infoOf(art)})
}

// handleArtifactLoad reads a binary artifact (as written by Save or GET
// /jobs/{id}/artifact) from the request body, resolves it into a serving
// bundle off to the side, and atomically swaps it in.
func (s *Server) handleArtifactLoad(w http.ResponseWriter, r *http.Request) {
	art, err := model.LoadArtifact(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bn, err := serve.NewBundle(art)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.reg.Swap(bn)
	writeJSON(w, map[string]any{"artifact": infoOf(art)})
}

// Publish resolves art into a serving bundle and atomically swaps it in —
// the programmatic equivalent of PUT /artifacts/current, used by `falcon
// serve` to pre-load an artifact at boot.
func (s *Server) Publish(art *model.MatcherArtifact) error {
	bn, err := serve.NewBundle(art)
	if err != nil {
		return err
	}
	s.reg.Swap(bn)
	return nil
}

// handleArtifactInfo reports the currently served artifact's metadata.
func (s *Server) handleArtifactInfo(w http.ResponseWriter, r *http.Request) {
	bn := s.reg.Current()
	if bn == nil {
		httpError(w, http.StatusNotFound, "no artifact published; PUT /artifacts/current or POST /artifacts first")
		return
	}
	writeJSON(w, map[string]any{"artifact": infoOf(bn.Artifact())})
}

// handleJobArtifact downloads a finished job's artifact in the versioned
// binary format — the train→save leg of the train/serve contract.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	job, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if job.State != StateDone || job.result.Artifact == nil {
		httpError(w, http.StatusConflict, "job is %s or has no artifact", job.State)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.falcon", job.ID))
	_ = job.result.Artifact.Save(w)
}

// matchOneRequest is the POST /match/one body: one record's values keyed
// by the A-schema column names the artifact was trained with. Absent
// columns are treated as missing.
type matchOneRequest struct {
	Record map[string]string `json:"record"`
}

// matchOneMatch is one match in the response, with the B row's values.
type matchOneMatch struct {
	BRow   int               `json:"b_row"`
	Score  float64           `json:"score"`
	Values map[string]string `json:"values"`
}

// handleMatchOne matches one record against the published artifact on the
// lock-free serving path.
func (s *Server) handleMatchOne(w http.ResponseWriter, r *http.Request) {
	bn := s.reg.Current()
	if bn == nil {
		httpError(w, http.StatusServiceUnavailable, "no artifact published; PUT /artifacts/current or POST /artifacts first")
		return
	}
	var req matchOneRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Record) == 0 {
		httpError(w, http.StatusBadRequest, `body must be {"record": {"column": "value", ...}}; columns: %s`,
			strings.Join(bn.ColNames(), ", "))
		return
	}
	rec, err := bn.Record(req.Record)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	matches, err := bn.MatchOne(rec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	bNames := bn.BNames()
	out := make([]matchOneMatch, 0, len(matches))
	for _, m := range matches {
		vals := map[string]string{}
		for i, v := range bn.BValues(m.BRow) {
			vals[bNames[i]] = v
		}
		out = append(out, matchOneMatch{BRow: m.BRow, Score: m.Score, Values: vals})
	}
	writeJSON(w, map[string]any{"count": len(out), "matches": out})
}
