package wire

import (
	"bytes"
	"reflect"
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
