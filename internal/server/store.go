package server

import (
	"bytes"
	"encoding/json"
	"strings"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/store"
)

// The persistent tier under the in-memory job cache. Store payloads are
// the compact JSON of a single metrics.RunRecord — deliberately NOT the
// served Report, whose Generator field varies by producing tool: the
// RunRecord depends only on the simulation, so daemons and prewarming
// CLIs sharing one store root always agree byte-for-byte on a key's
// payload. The server re-wraps the record into a Report at serve time
// with exactly the envelope execute builds for a fresh run, so a store
// hit and a fresh simulation serve identical bytes.

// StoreKey resolves a request's result-store identity — the (workload,
// policy, config digest) triple a daemon would file its result under —
// without executing anything: Resolve's Plan.Key. base is as for
// Resolve (nil means config.Eval, the service default).
func StoreKey(base func() config.Config, req RunRequest) (store.Key, error) {
	p, err := Resolve(base, req)
	return p.Key, err
}

// RecordPayload serializes one run record exactly as the service
// persists it, so out-of-band store writers (mosaic-sim -record-store)
// produce payloads byte-identical to a daemon's own.
func RecordPayload(rec metrics.RunRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// wrapPayload rebuilds the served Report bytes from a stored RunRecord
// payload through the same envelope execute serves fresh runs in.
func (s *Server) wrapPayload(j *job, payload []byte) ([]byte, error) {
	var rec metrics.RunRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	return s.envelope(j, rec)
}

// envelope serializes the Report a job serves: its one run record under
// the job's seed, workload and the server's Generator. Fresh runs and
// store hits both go through it, so they serve identical bytes.
func (s *Server) envelope(j *job, rec metrics.RunRecord) ([]byte, error) {
	rep := metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     s.opt.Generator,
		Seed:          j.seed,
		Apps:          strings.Split(j.Key.Workload, ","),
		Figures: []metrics.Figure{{
			ID:    "run",
			Title: j.Key.Policy + " on " + j.Key.Workload,
			Runs:  []metrics.RunRecord{rec},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tryStore looks the job's key up in the persistent store and returns
// ready-to-serve Report bytes, or nil on a miss (including a payload
// that fails to parse — the caller then simulates fresh, which is
// always safe).
func (s *Server) tryStore(j *job) []byte {
	payload, err := s.store.Get(j.Key)
	if err != nil {
		return nil
	}
	result, err := s.wrapPayload(j, payload)
	if err != nil {
		return nil
	}
	return result
}

// putStore persists a completed run's record. Failures only bump a
// counter: the in-memory result still serves this job, the store just
// won't accelerate the next daemon.
func (s *Server) putStore(j *job, rec metrics.RunRecord) {
	payload, err := RecordPayload(rec)
	if err != nil {
		s.storePutErrors.Add(1)
		return
	}
	if err := s.store.Put(j.Key, payload); err != nil {
		s.storePutErrors.Add(1)
	}
}
