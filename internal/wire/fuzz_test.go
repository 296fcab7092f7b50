package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary frame payloads to the decoder. Decoding must
// never panic, and whatever decodes must survive a second trip: its
// encoding decodes again, to a message of the same type whose encoding is
// byte-identical. Encodings are compared, not messages, because a float
// NaN is never equal to itself. Seeds are every message of the round-trip
// test plus the malformed payloads under testdata/fuzz/FuzzDecode.
//
//	go test ./internal/wire -run='^$' -fuzz FuzzDecode -fuzztime 30s
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(m.msgType(), m.encode(nil))
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m, err := decodeMsg(typ, payload)
		if err != nil {
			return
		}
		if m.msgType() != typ {
			t.Fatalf("type %s decoded as %s", TypeName(typ), TypeName(m.msgType()))
		}
		enc := m.encode(nil)
		again, err := decodeMsg(typ, enc)
		if err != nil {
			t.Fatalf("%s: re-encoded message does not decode: %v\nmessage: %#v", TypeName(typ), err, m)
		}
		if reflect.TypeOf(again) != reflect.TypeOf(m) {
			t.Fatalf("%s: second decode gave %T", TypeName(typ), again)
		}
		if enc2 := again.encode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: second trip changed the encoding:\nfirst:  %x\nsecond: %x", TypeName(typ), enc, enc2)
		}
	})
}

// TestNoncanonicalSeedsDecode keeps the committed seeds named
// *-noncanonical decodable. FuzzDecode returns early on a decode error,
// so a seed left stale by a layout change would silently stop exercising
// the round trip on noncanonical varints and bools; here it fails instead.
func TestNoncanonicalSeedsDecode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*-noncanonical"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no noncanonical seeds")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a two-argument fuzz seed", p)
		}
		typ, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
		payload, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err1 != nil || err2 != nil || len(typ) != 1 {
			t.Fatalf("%s: unparsable seed: %v %v", p, err1, err2)
		}
		m, err := decodeMsg(typ[0], []byte(payload))
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		if enc := m.encode(nil); bytes.Equal(enc, []byte(payload)) {
			t.Errorf("%s: payload is already canonical", filepath.Base(p))
		}
	}
}
