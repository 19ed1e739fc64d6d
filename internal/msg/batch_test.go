package msg

import (
	"testing"

	"etx/internal/id"
)

// TestBatchRoundTripEmpty pins the edge case of a Batch with no members:
// legal on the wire (no sender produces one, but the codec must not choke on
// it).
func TestBatchRoundTripEmpty(t *testing.T) {
	env := Envelope{From: id.AppServer(1), To: id.DBServer(1), Payload: Batch{}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := back.Payload.(Batch)
	if !ok || len(batch.Msgs) != 0 {
		t.Fatalf("empty batch round trip = %#v", back.Payload)
	}
}

// TestBatchRejectsNesting: batches do not nest, on encode or decode.
func TestBatchRejectsNesting(t *testing.T) {
	nested := Batch{Msgs: []Payload{Batch{Msgs: []Payload{Heartbeat{Seq: 1}}}}}
	if _, err := Encode(Envelope{From: id.AppServer(1), To: id.DBServer(1), Payload: nested}); err == nil {
		t.Fatal("encoding a nested Batch succeeded")
	}
	// Hand-craft the wire form the encoder refuses to produce.
	var w writer
	w.node(id.AppServer(1))
	w.node(id.DBServer(1))
	w.byte(byte(KindBatch))
	w.uvarint(1)
	w.byte(byte(KindBatch))
	w.uvarint(0)
	if _, err := Decode(w.buf); err == nil {
		t.Fatal("decoding a nested Batch succeeded")
	}
}

// TestBatchDecodeTruncated: a batch whose member count exceeds the buffer
// fails cleanly instead of allocating for it.
func TestBatchDecodeTruncated(t *testing.T) {
	var w writer
	w.node(id.AppServer(1))
	w.node(id.DBServer(1))
	w.byte(byte(KindBatch))
	w.uvarint(1 << 30)
	if _, err := Decode(w.buf); err == nil {
		t.Fatal("decoding an oversized Batch count succeeded")
	}
}
