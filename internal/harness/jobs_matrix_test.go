package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// matrixBytes runs one cell of the execution-knob matrix — a fixed set
// of experiments under the given Jobs setting — and returns the
// serialized figures (the exported representation CI diffs). The
// experiment set crosses the remaining matrix axes:
//
//   - demand-paged oversubscription at 1.2x and 2x (the Oversub figure),
//   - a TLB sweep forked from a warmed snapshot (snapshot-fork on),
//   - the same TLB sweep single-phase with unbounded residency
//     (snapshot-fork off, no oversubscription).
func matrixBytes(t *testing.T, jobs int) []byte {
	t.Helper()
	var out bytes.Buffer
	collect := func(h *Harness, id string, body func() metrics.Table) {
		fig := h.CollectFigure(id, body)
		b, err := json.Marshal(fig)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}

	ho := tiny(t)
	ho.AppNames = []string{"CONS", "NW"}
	ho.Jobs = jobs
	collect(ho, "oversub", func() metrics.Table { return ho.Oversub(1.2, 2).Table })

	hf := sweepHarness(t, jobs, 10_000)
	collect(hf, "fig14a", func() metrics.Table { return hf.Fig14L1(2, 16, 128).Table })

	hp := sweepHarness(t, jobs, 0)
	collect(hp, "fig14a", func() metrics.Table { return hp.Fig14L1(2, 16, 128).Table })

	return out.Bytes()
}

// TestJobsMatrixByteIdentical pins the harness's Jobs guarantee across
// the matrix's other axes: at Jobs=8, snapshot-fork on/off and
// oversubscribed/unbounded residency (inside matrixBytes) produce
// byte-identical serialized records to the Jobs=1 baseline, and no
// worker goroutine outlives the runs.
func TestJobsMatrixByteIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	baseline := matrixBytes(t, 1)
	t.Run("jobs=8", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		if got := matrixBytes(t, 8); !bytes.Equal(got, baseline) {
			t.Errorf("Jobs=8 records differ from Jobs=1 baseline:\ngot:\n%s\nwant:\n%s", got, baseline)
		}
	})
}
