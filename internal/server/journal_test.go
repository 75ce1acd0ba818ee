package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func testSpec() JobSpec {
	s := JobSpec{Framework: "tf", Dataset: "mnist"}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func TestJournalRoundTripAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, pending, maxSeq, warnings, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if len(pending) != 0 || maxSeq != 0 || len(warnings) != 0 {
		t.Fatalf("fresh journal: pending=%v maxSeq=%d warnings=%v", pending, maxSeq, warnings)
	}
	j1 := newJob("j-1", testSpec(), "c1", false)
	j2 := newJob("j-2", testSpec(), "c2", false)
	if err := jl.submit(j1); err != nil {
		t.Fatalf("submit j-1: %v", err)
	}
	if err := jl.submit(j2); err != nil {
		t.Fatalf("submit j-2: %v", err)
	}
	if err := jl.state("j-1", StateCompleted); err != nil {
		t.Fatalf("state j-1: %v", err)
	}
	if err := jl.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: only the unfinished job survives, the sequence continues
	// past the highest ID ever issued, and the file is compacted to just
	// the pending submit.
	jl2, pending, maxSeq, warnings, err := openJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer jl2.close()
	if len(warnings) != 0 {
		t.Fatalf("clean journal produced warnings: %v", warnings)
	}
	if len(pending) != 1 || pending[0].ID != "j-2" || pending[0].Client != "c2" {
		t.Fatalf("pending = %+v, want [j-2/c2]", pending)
	}
	if maxSeq != 2 {
		t.Fatalf("maxSeq = %d, want 2", maxSeq)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read compacted journal: %v", err)
	}
	if got := strings.Count(string(b), "\n"); got != 1 || !strings.Contains(string(b), `"j-2"`) {
		t.Fatalf("compacted journal not minimal:\n%s", b)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"op":"submit","id":"j-1","spec":{"framework":"tf","dataset":"mnist"}}` + "\n" +
		`{"op":"submit","id":"j-2","spec":{"framework":"caffe","da` // torn mid-write
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	pending, maxSeq, warnings, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(pending) != 1 || pending[0].ID != "j-1" {
		t.Fatalf("pending = %+v, want the intact j-1", pending)
	}
	if maxSeq != 1 {
		t.Fatalf("maxSeq = %d, want 1", maxSeq)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "unparseable") {
		t.Fatalf("warnings = %v, want one unparseable-record warning", warnings)
	}
}

func TestJournalSkipsBadRecordsWithWarnings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := strings.Join([]string{
		`{"op":"submit","id":"j-1","spec":{"framework":"tf","dataset":"mnist"}}`,
		`{"op":"submit","id":"j-2"}`, // no spec
		`{"op":"submit","id":"j-3","spec":{"framework":"mxnet","dataset":"mnist"}}`, // unknown framework
		`{"op":"frobnicate","id":"j-1"}`,                                            // unknown op
		`{"op":"state","id":"j-1","state":"completed"}`,
		``,
	}, "\n")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	pending, _, warnings, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending = %+v, want none (j-1 completed, j-2/j-3 invalid)", pending)
	}
	if len(warnings) != 3 {
		t.Fatalf("warnings = %v, want 3 (no spec, invalid spec, unknown op)", warnings)
	}
}

// reopen closes jl and opens the journal at path again, failing on an
// error or a replay warning.
func reopen(t *testing.T, jl *journal, path string) (*journal, []pendingJob, int64) {
	t.Helper()
	if err := jl.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	jl, pending, maxSeq, warnings, err := openJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(warnings) != 0 {
		t.Fatalf("replay warnings: %v", warnings)
	}
	return jl, pending, maxSeq
}

// TestJournalReplaysOverlongRecord: a record longer than any fixed line
// buffer (a 200 KiB client key of '<', which json.Marshal writes as six
// bytes each, so the line is 1.2 MB) replays like any other, and so do
// the records after it, on every restart.
func TestJournalReplaysOverlongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, _, _, _, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	long := strings.Repeat("<", 200<<10)
	for i, client := range []string{"c1", long, "c3"} {
		if err := jl.submit(newJob(fmt.Sprintf("j-%d", i+1), testSpec(), client, false)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for restart := 1; restart <= 2; restart++ {
		var pending []pendingJob
		var maxSeq int64
		jl, pending, maxSeq = reopen(t, jl, path)
		if len(pending) != 3 || maxSeq != 3 || pending[1].Client != long || pending[2].ID != "j-3" {
			t.Fatalf("restart %d: %d pending, maxSeq %d, want j-1..j-3 with the long key", restart, len(pending), maxSeq)
		}
	}
	jl.close()
}

// TestJournalCompactionKeepsHighestID: compaction drops finished jobs
// but not the highest ID assigned, so IDs of completed jobs, which clients
// may already have read, are never assigned again, however many restarts
// follow.
func TestJournalCompactionKeepsHighestID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, _, _, _, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	for _, id := range []string{"j-1", "j-2", "j-3"} {
		if err := jl.submit(newJob(id, testSpec(), "c", false)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	for _, id := range []string{"j-2", "j-3"} {
		if err := jl.state(id, StateCompleted); err != nil {
			t.Fatalf("state %s: %v", id, err)
		}
	}
	for restart := 1; restart <= 3; restart++ {
		var pending []pendingJob
		var maxSeq int64
		jl, pending, maxSeq = reopen(t, jl, path)
		if len(pending) != 1 || pending[0].ID != "j-1" || maxSeq != 3 {
			t.Fatalf("restart %d: pending %+v, maxSeq %d; want [j-1] and 3", restart, pending, maxSeq)
		}
	}
	// With nothing pending the journal still remembers the high-water mark.
	if err := jl.state("j-1", StateFailed); err != nil {
		t.Fatalf("state j-1: %v", err)
	}
	for restart := 1; restart <= 2; restart++ {
		var pending []pendingJob
		var maxSeq int64
		jl, pending, maxSeq = reopen(t, jl, path)
		if len(pending) != 0 || maxSeq != 3 {
			t.Fatalf("all finished, restart %d: pending %+v, maxSeq %d; want none and 3", restart, pending, maxSeq)
		}
	}
	jl.close()
}

// TestServerRecoversJournaledJobs is the crash-safety contract end to
// end: a server killed hard (simulated by an expired drain deadline, so
// neither the running nor the queued job reaches a terminal state) is
// rebuilt on the same journal, and both jobs are resurrected and run to
// completion by the new process.
func TestServerRecoversJournaledJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	blockRun := func(ctx context.Context, _ int, _ *Job) (*metrics.RunResult, error) {
		<-ctx.Done() // only the hard stop ends this job
		return nil, ctx.Err()
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, JournalPath: path, Run: blockRun})
	_, r1 := submit(t, ts1, `{"framework":"tf","dataset":"mnist"}`, "alice")
	_, r2 := submit(t, ts1, `{"framework":"caffe","dataset":"cifar10","seed":7}`, "bob")
	waitState(t, s1, r1.ID, StateRunning)
	ts1.Close()

	// Hard kill: drain budget already expired, so the in-flight job is
	// cancelled mid-run and the queued job never starts.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	pending, err := s1.Shutdown(expired)
	if err == nil || !strings.Contains(err.Error(), "hard stop") {
		t.Fatalf("hard-stop shutdown err = %v, want hard-stop error", err)
	}
	if pending < 1 {
		t.Fatalf("pending = %d, want the queued job counted", pending)
	}

	// Restart on the same journal with a working runner.
	s2, err := New(Config{Workers: 1, JournalPath: path, Run: okRun})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx) //nolint:errcheck
	}()
	if got := s2.Recovered(); got != 2 {
		t.Fatalf("recovered = %d, want 2", got)
	}
	for _, id := range []string{r1.ID, r2.ID} {
		j := waitState(t, s2, id, StateCompleted)
		if v := j.View(); !v.Recovered {
			t.Fatalf("job %s not marked recovered: %+v", id, v)
		}
	}
	// Recovered specs keep their identity: bob's cifar10/seed-7 cell.
	j2, _ := s2.Job(r2.ID)
	if v := j2.View(); v.Spec.Dataset != "cifar10" || v.Spec.Seed != 7 || v.Client != "bob" {
		t.Fatalf("recovered spec mangled: %+v", v)
	}
	// New IDs continue past the recovered sequence instead of colliding.
	s2.BeginDrain() // no HTTP here; exercise the ID counter directly
	if next := s2.seq.Add(1); next != 3 {
		t.Fatalf("next seq = %d, want 3 (after j-1, j-2)", next)
	}
}

// TestRecoveredJobsStartOnEveryWorker: recovery pushes its jobs back to
// back before any worker has run. Three journaled jobs with one (scale,
// seed) must start on both workers at once, and the third must run when
// a worker frees up: no worker sleeps through a queued job.
func TestRecoveredJobsStartOnEveryWorker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, _, _, _, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	ids := []string{"j-1", "j-2", "j-3"}
	for _, id := range ids {
		if err := jl.submit(newJob(id, testSpec(), "c", false)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	release := make(chan struct{})
	var mu sync.Mutex
	ranOn := map[int]int{}
	run := func(ctx context.Context, worker int, _ *Job) (*metrics.RunResult, error) {
		mu.Lock()
		ranOn[worker]++
		mu.Unlock()
		select {
		case <-release:
			return &metrics.RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, err := New(Config{Workers: 2, JournalPath: path, Run: run})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()
	if got := s.Recovered(); got != 3 {
		t.Fatalf("recovered = %d, want 3", got)
	}
	waitState(t, s, "j-1", StateRunning)
	waitState(t, s, "j-2", StateRunning)
	if j, _ := s.Job("j-3"); j.State() != StateQueued {
		t.Fatalf("j-3 state = %s with both workers busy, want queued", j.State())
	}
	close(release)
	for _, id := range ids {
		waitState(t, s, id, StateCompleted)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ranOn) != 2 || ranOn[0]+ranOn[1] != 3 {
		t.Fatalf("jobs per worker = %v, want all 3 jobs spread over workers 0 and 1", ranOn)
	}
}

// TestQueueFullRejectionNotRecovered: a job journaled but then rejected
// at the queue gets a terminal record, so a restart must not resurrect
// work the client was told to retry.
func TestQueueFullRejectionNotRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	release := make(chan struct{})
	blockRun := func(ctx context.Context, _ int, _ *Job) (*metrics.RunResult, error) {
		select {
		case <-release:
			return &metrics.RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, JournalPath: path, Run: blockRun})
	defer close(release)
	_, first := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, first.ID, StateRunning)
	if code, _ := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, ""); code != 202 {
		t.Fatal("fill submit rejected")
	}
	code, _ := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	if code != 429 {
		t.Fatalf("overflow submit: %d, want 429", code)
	}
	pending, _, _, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, p := range pending {
		if p.ID == "j-3" {
			t.Fatalf("queue-full-rejected job j-3 still pending in journal: %+v", pending)
		}
	}
}
