package resultcache

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
)

// FuzzDecodeEnvelope feeds DecodeEnvelope the bytes a peer can send to
// PUT /api/cache. Whatever the input, it must not panic, and it must
// either reject it with an error wrapping ErrBadEnvelope or return a
// Result whose re-encoding decodes under the same key. PutRaw must
// reject exactly the inputs DecodeEnvelope rejects.
func FuzzDecodeEnvelope(f *testing.F) {
	const key = "fuzz-key|nw"
	res := simulate(f, 300)
	raw, err := EncodeEnvelope(key, res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, key)
	f.Add(raw, "another-key|nw")
	for _, n := range []int{0, 1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n], key)
	}
	for _, at := range []int{0, 3, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		flipped := bytes.Clone(raw)
		flipped[at] ^= 0x10
		f.Add(flipped, key)
	}
	f.Add(append(bytes.Clone(raw), 0, 0, 0), key)
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(entry{Schema: "gpusecmem-resultcache/1", Key: key, Result: res}); err != nil {
		f.Fatal(err)
	}
	f.Add(foreign.Bytes(), key)

	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, key string) {
		got, decErr := DecodeEnvelope(raw, key)
		putErr := c.PutRaw(key, raw)
		if (decErr == nil) != (putErr == nil) {
			t.Fatalf("DecodeEnvelope error %v, PutRaw error %v", decErr, putErr)
		}
		if decErr != nil {
			if !errors.Is(decErr, ErrBadEnvelope) || !errors.Is(putErr, ErrBadEnvelope) {
				t.Fatalf("untyped rejection: decode %v, put %v", decErr, putErr)
			}
			return
		}
		again, err := EncodeEnvelope(key, got)
		if err != nil {
			t.Fatalf("re-encode of an accepted envelope: %v", err)
		}
		if _, err := DecodeEnvelope(again, key); err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
	})
}
