package server

import (
	"fmt"
	"testing"
	"time"
)

func qjob(id string, seed uint64) *Job {
	spec := JobSpec{Framework: "tf", Dataset: "mnist", Seed: seed}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return newJob(id, spec, "", false)
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue(4)
	// Jobs leave in arrival order whatever their (scale, seed).
	for i, seed := range []uint64{42, 7, 42} {
		if !q.push(qjob(fmt.Sprintf("j-%d", i), seed)) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	for i := 0; i < 3; i++ {
		j := q.pop()
		if j == nil || j.ID != fmt.Sprintf("j-%d", i) {
			t.Fatalf("pop %d = %v, want j-%d", i, j, i)
		}
	}
	// An empty queue yields no job: pop waits until a push lands.
	got := make(chan *Job, 1)
	go func() { got <- q.pop() }()
	select {
	case j := <-got:
		t.Fatalf("pop on empty queue returned %v", j)
	case <-time.After(20 * time.Millisecond):
	}
	q.push(qjob("j-3", 42))
	select {
	case j := <-got:
		if j == nil || j.ID != "j-3" {
			t.Fatalf("woken pop = %v, want j-3", j)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push did not wake the waiting pop")
	}
}

func TestQueueRejectsAtCapacity(t *testing.T) {
	q := newQueue(2)
	if !q.push(qjob("j-1", 42)) || !q.push(qjob("j-2", 7)) {
		t.Fatal("pushes below capacity rejected")
	}
	if q.push(qjob("j-3", 3)) {
		t.Fatal("push above capacity admitted")
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
}

// TestQueueBackToBackPushesWakeEveryWorker: as many jobs pushed at once
// as workers waiting wake all of them; none stays asleep with a job
// queued.
func TestQueueBackToBackPushesWakeEveryWorker(t *testing.T) {
	const workers = 3
	q := newQueue(workers)
	got := make(chan *Job, workers)
	for i := 0; i < workers; i++ {
		go func() { got <- q.pop() }()
	}
	time.Sleep(20 * time.Millisecond) // let the workers block in pop
	for i := 0; i < workers; i++ {
		if !q.push(qjob(fmt.Sprintf("j-%d", i), 42)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < workers; i++ {
		select {
		case j := <-got:
			seen[j.ID] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiting workers woke for %d queued jobs (depth %d)", i, workers, workers, q.depth())
		}
	}
	if len(seen) != workers {
		t.Fatalf("workers took %v, want %d distinct jobs", seen, workers)
	}
}

func TestQueueCloseStopsAdmissionAndDrains(t *testing.T) {
	q := newQueue(4)
	if !q.push(qjob("j-1", 1)) || !q.push(qjob("j-2", 2)) {
		t.Fatal("setup pushes rejected")
	}
	q.close()
	if q.push(qjob("j-3", 3)) {
		t.Fatal("push admitted after close")
	}
	// A closed queue hands no more jobs to workers; what is queued stays
	// for drainPending.
	if j := q.pop(); j != nil {
		t.Fatalf("pop after close returned %s", j.ID)
	}
	left := q.drainPending()
	if len(left) != 2 {
		t.Fatalf("drainPending returned %d jobs, want 2", len(left))
	}
	if q.depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", q.depth())
	}
}
