package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

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

// newHistories builds the history kind over the history store. An ingest
// run renders its artifacts itself, so a history's render only wraps them.
func newHistories(s *Server) *resource[string] {
	r := newResource(s, Histories, s.opts.HistoryStore, ingest.ArtifactKeys())
	r.storedIDs = func(ctx context.Context) ([]string, error) {
		if lister, ok := r.store.(store.IDLister); ok {
			return lister.ListIDs(ctx)
		}
		return nil, nil
	}
	r.describe = func(key int64, desc map[string]any) {
		desc["artifacts"] = ingest.ArtifactKeys()
		// Surface the history's SQL dialect (detected or client-supplied at
		// ingest) from the rendered profile when it is cached.
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
// content-address the upload, then answer from the cache or the store, or
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
		f, created := s.histories.flightFor(up.ID, func(ctx context.Context, id string) (renderFunc, error) {
			res, err := ingest.Run(ctx, up)
			if err != nil {
				return nil, err
			}
			s.opts.Logger.Info("history ingested", "history", id, "project", res.Profile.Project,
				"taxon", res.Profile.TaxonShort, "compatibility", res.Profile.Compatibility)
			return func(context.Context) (*store.Snapshot, error) {
				return &store.Snapshot{Artifacts: res.Artifacts}, nil
			}, nil
		})
		arts, err := s.histories.await(r.Context(), up.ID, f)
		if errors.Is(err, ingest.ErrNoUsableVersions) {
			ref.Write(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		if err != nil {
			failRun(w, ref, err)
			return
		}
		resp.Created = created
		profile, compat = arts[ingest.ArtifactProfile], arts[ingest.ArtifactCompatibility]
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
