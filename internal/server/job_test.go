package server

import (
	"net/http"
	"testing"

	"repro/internal/store"
)

// TestTerminalJobReleasesPlan: the server keeps every job addressable
// by ID for its whole life, so a job that turned terminal — simulated,
// served from the store, or canceled — must not keep its plan's
// configuration and workload alive.
func TestTerminalJobReleasesPlan(t *testing.T) {
	st := store.NewMem()
	s1, ts1, release, _ := newStubServer(t, Options{Workers: 1, Store: st})
	planOf := func(s *Server, id string) *Plan {
		j := s.lookup(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.plan
	}

	_, ran, _ := postRun(t, ts1, RunRequest{Apps: []string{"SCP"}})
	_, canceled, _ := postRun(t, ts1, RunRequest{Apps: []string{"SCP"}, Seed: 1})
	if planOf(s1, canceled.ID) == nil {
		t.Fatal("a queued job has no plan to run")
	}
	if code, st, raw := postCancel(t, ts1, canceled.ID); code != http.StatusOK || st.State != JobCanceled {
		t.Fatalf("cancel: HTTP %d: %s", code, raw)
	}
	close(release)
	waitState(t, ts1, ran.ID, JobDone)

	s2, ts2, _, execs := newStubServer(t, Options{Workers: 1, Store: st})
	_, served, _ := postRun(t, ts2, RunRequest{Apps: []string{"SCP"}})
	if served.State != JobDone || execs.Load() != 0 {
		t.Fatalf("restarted daemon: state %s after %d simulations, want a store serve", served.State, execs.Load())
	}
	for _, c := range []struct {
		what string
		s    *Server
		id   string
	}{{"simulated", s1, ran.ID}, {"canceled", s1, canceled.ID}, {"store-served", s2, served.ID}} {
		if planOf(c.s, c.id) != nil {
			t.Errorf("%s job %s still holds its plan", c.what, c.id)
		}
	}
}
