package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplayJournal: a daemon replays its journal at every start, from a
// file a crash may have torn. No input may make replay panic or fail.
// Every pending job must carry a valid spec, with unique IDs in sequence
// order. A valid submit appended after the input, under the next ID the
// daemon would assign, must be pending. And replaying the journal that
// openJournal compacted must give the same pending list and maxSeq,
// with no warnings. The seed corpus is in
// testdata/fuzz/FuzzReplayJournal.
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		write := func(name string, b []byte) string {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}
		path := write("journal.jsonl", data)
		pending, maxSeq, _, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		seen := map[string]bool{}
		for i, p := range pending {
			if err := p.Spec.Validate(); err != nil {
				t.Fatalf("pending %s has an invalid spec: %v", p.ID, err)
			}
			if seen[p.ID] {
				t.Fatalf("pending %s twice", p.ID)
			}
			seen[p.ID] = true
			if i > 0 && jobSeq(pending[i-1].ID) > jobSeq(p.ID) {
				t.Fatalf("pending out of sequence order: %s before %s", pending[i-1].ID, p.ID)
			}
		}

		if maxSeq < math.MaxInt64 {
			id := fmt.Sprintf("j-%d", maxSeq+1)
			rec := fmt.Sprintf(`{"op":"submit","id":%q,"client":"c","spec":{"framework":"tf","dataset":"mnist"}}`, id)
			more := append(append(append([]byte(nil), data...), '\n'), rec+"\n"...)
			after, _, _, err := replayJournal(write("appended.jsonl", more))
			if err != nil {
				t.Fatalf("replay with appended submit: %v", err)
			}
			if len(after) == 0 || after[len(after)-1].ID != id {
				t.Fatalf("submit %s appended after the input is not the last pending job: %+v", id, after)
			}
		}

		jl, opened, openedSeq, _, err := openJournal(path)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		if err := jl.close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opened, pending) || openedSeq != maxSeq {
			t.Fatalf("openJournal replayed %+v/%d, replayJournal %+v/%d", opened, openedSeq, pending, maxSeq)
		}
		again, againSeq, warnings, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay after compaction: %v", err)
		}
		if len(warnings) != 0 {
			t.Fatalf("compacted journal replays with warnings: %v", warnings)
		}
		if !reflect.DeepEqual(again, pending) || againSeq != maxSeq {
			t.Fatalf("after compaction: pending %+v maxSeq %d, before %+v maxSeq %d", again, againSeq, pending, maxSeq)
		}
	})
}
