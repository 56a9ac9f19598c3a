package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/store"
)

// This file is what the ingested-history kind adds to the unified resource
// model: POST /v1/histories accepts a user-supplied DDL history, runs the
// parse→diff→heartbeat→classify pipeline on it (ingest.Run), and serves the
// resulting profile/compatibility artifacts through the same
// cache → singleflight → store machinery as seeds. Re-uploads and
// concurrent uploads of one logical history collapse onto one run — the
// dedup the schemaevod_ingest_dedup_hits_total counter observes.

// DefaultMaxUploadBytes is the POST /v1/histories body bound when
// Options.MaxUploadBytes is zero.
const DefaultMaxUploadBytes int64 = 8 << 20

// newHistories builds the history kind over the history store.
func newHistories(s *Server) *resource[string, *ingest.Result] {
	r := newResource[string, *ingest.Result](s, Histories, s.opts.HistoryStore)
	r.memo = func(res *ingest.Result) map[string][]byte { return res.Artifacts }
	r.snapshot = func(_ context.Context, res *ingest.Result) (*store.Snapshot, error) {
		return &store.Snapshot{Artifacts: res.Artifacts}, nil
	}
	r.storedIDs = func(ctx context.Context) ([]string, error) {
		if lister, ok := r.store.(store.IDLister); ok {
			return lister.ListIDs(ctx)
		}
		return nil, nil
	}
	r.describe = func(key int64, desc map[string]any) {
		desc["artifacts"] = ingest.ArtifactKeys()
		// Surface the history's SQL dialect (detected or client-supplied at
		// ingest) from the rendered profile when it is in the memo.
		if b, ok := r.cache.GetArtifact(key, ingest.ArtifactProfile); ok {
			var p struct {
				Dialect string `json:"dialect"`
			}
			if json.Unmarshal(b, &p) == nil && p.Dialect != "" {
				desc["dialect"] = p.Dialect
			}
		}
	}
	return r
}

// ingestResponse is the POST /v1/histories body: the resource identity plus
// the two headline artifacts embedded verbatim, so a single upload
// round-trip returns the profile, taxon and per-version compatibility
// without follow-up artifact GETs.
type ingestResponse struct {
	Resource      string          `json:"resource"`
	ID            string          `json:"id"`
	Created       bool            `json:"created"` // false = deduplicated
	Artifacts     []string        `json:"artifacts"`
	Profile       json.RawMessage `json:"profile"`
	Compatibility json.RawMessage `json:"compatibility"`
}

// handleIngest is POST /v1/histories: bound the body, decode and
// content-address the upload, then answer from the memo or the store, or
// run — or dedup onto — the ingest pipeline.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ref := Histories.Ref("")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		s.metrics.ingestRejected.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			ref.Write(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("upload exceeds the %d-byte limit", mbe.Limit))
			return
		}
		ref.Write(w, http.StatusBadRequest, "read upload: "+err.Error())
		return
	}
	up, err := ingest.Prepare(r.Header.Get("Content-Type"), body)
	if err != nil {
		s.metrics.ingestRejected.Add(1)
		code := http.StatusBadRequest
		if errors.Is(err, ingest.ErrUnsupportedMedia) {
			code = http.StatusUnsupportedMediaType
		}
		ref.Write(w, code, err.Error())
		return
	}
	s.metrics.ingestAccepted.Add(1)
	ref = Histories.Ref(up.ID)

	resp := ingestResponse{Resource: Histories.Name, ID: up.ID, Artifacts: ingest.ArtifactKeys()}
	profile, ok := s.histories.lookup(r.Context(), up.ID, ingest.ArtifactProfile)
	compat, ok2 := s.histories.cache.GetArtifact(up.Key(), ingest.ArtifactCompatibility)
	if !ok || !ok2 {
		res, ran, err := s.histories.run(r.Context(), up.ID, func(ctx context.Context, id string) (*ingest.Result, error) {
			res, err := ingest.Run(ctx, up)
			if err == nil {
				s.opts.Logger.Info("history ingested", "history", id, "project", res.Profile.Project,
					"taxon", res.Profile.TaxonShort, "compatibility", res.Profile.Compatibility)
			}
			return res, err
		})
		if errors.Is(err, ingest.ErrNoUsableVersions) {
			ref.Write(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		if err != nil {
			failRun(w, ref, err)
			return
		}
		resp.Created = ran
		profile, compat = res.Artifacts[ingest.ArtifactProfile], res.Artifacts[ingest.ArtifactCompatibility]
	}
	if !resp.Created {
		s.metrics.ingestDedup.Add(1)
	}
	resp.Profile, resp.Compatibility = profile, compat
	w.Header().Set("Content-Type", "application/json")
	if resp.Created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(resp)
}

// handleHistoryArtifact serves one rendered ingest artifact: memo hit →
// store restore → 404 (the daemon does not retain upload bodies, so an
// evicted un-persisted history needs a re-upload — which dedups back to the
// same identity).
func (s *Server) handleHistoryArtifact(w http.ResponseWriter, r *http.Request) {
	id, ok := s.histories.parse(w, r)
	if !ok {
		return
	}
	artifact := r.PathValue("key")
	if !ingest.KnownArtifact(artifact) {
		Histories.Ref(id).Write(w, http.StatusNotFound,
			fmt.Sprintf("unknown history artifact %q; available: %v", artifact, ingest.ArtifactKeys()))
		return
	}
	start := time.Now()
	b, ok := s.histories.lookup(r.Context(), id, artifact)
	if !ok {
		Histories.Ref(id).Write(w, http.StatusNotFound,
			"unknown history; POST the history to /v1/histories first (re-uploads deduplicate)")
		return
	}
	w.Header().Set("Content-Type", ingest.ContentTypeFor(artifact))
	w.Write(b)
	s.metrics.ObserveLatency(artifact, time.Since(start))
}
