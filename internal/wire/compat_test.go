package wire

import (
	"bytes"
	"testing"
)

// TestV2EncodeDecodeRoundTrip pins the version-named entry points to the one
// codec: AppendMessageV at MaxVersion writes exactly Encode's bytes, and
// DecodeV at MaxVersion reads them back.
func TestV2EncodeDecodeRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		data := AppendMessageV(nil, msg, MaxVersion)
		if !bytes.Equal(data, Encode(msg)) {
			t.Fatalf("AppendMessageV(%v) differs from Encode", msg.Kind())
		}
		got, err := DecodeV(data, MaxVersion)
		if err != nil {
			t.Fatalf("DecodeV(%v): %v", msg.Kind(), err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("round trip mismatch for %v:\n sent %#v\n got  %#v", msg.Kind(), msg, got)
		}
	}
}

func TestDecodeVRejectsUnknownVersion(t *testing.T) {
	data := Encode(ReplicateBatch{SrcDC: 1, UpTo: 5})
	for _, v := range []Version{0, 1, 3, 255} {
		if _, err := DecodeV(data, v); err == nil {
			t.Fatalf("DecodeV accepted unsupported version %d", v)
		}
	}
}
