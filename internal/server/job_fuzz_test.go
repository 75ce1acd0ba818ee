package server

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// FuzzJobSpec fuzzes what POST /jobs reads from the network: the body
// decode under its 1 MiB cap, then JobSpec.Validate. No input may panic
// either. A body the decode accepts holds exactly one JSON value.
// Validate normalises a spec so that a journaled spec replays
// identically, so a spec that validates must survive marshal, decode and
// Validate again unchanged. The seed corpus is in
// testdata/fuzz/FuzzJobSpec.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not exactly one JSON value", body)
		}
		if spec.Validate() != nil {
			return
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal a validated spec: %v", err)
		}
		again, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("validate %s again: %v", raw, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}
