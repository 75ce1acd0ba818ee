package resilience

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCheckpoint fuzzes what -resume reads from disk: the
// checkpoint header and gob body, then the weight restore. No input may
// panic, and every error must wrap ErrCheckpoint. A checkpoint that
// decodes must re-encode to bytes that decode and re-encode to the same
// bytes; bytes are compared because NaN losses defeat DeepEqual. Its
// weights must either restore into a fixed small network or be rejected
// with ErrCheckpoint. The seed corpus is in
// testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	encode := func(t *testing.T, c *Checkpoint) []byte {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatalf("encode a decoded checkpoint: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeCheckpoint(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("error does not wrap ErrCheckpoint: %v", err)
			}
			return
		}
		first := encode(t, c)
		again, err := DecodeCheckpoint(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decode a re-encoded checkpoint: %v", err)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable:\n first %q\nsecond %q", first, second)
		}
		if err := RestoreParams(testNet(t, 1, 3), c.Params); err != nil && !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("restore error does not wrap ErrCheckpoint: %v", err)
		}
	})
}
