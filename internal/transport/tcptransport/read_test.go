package tcptransport

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/lint/leakcheck"
	"etx/internal/msg"
)

// appendFrame appends env to stream the way Send frames it.
func appendFrame(t *testing.T, stream []byte, env msg.Envelope) []byte {
	t.Helper()
	at := len(stream)
	stream, err := msg.AppendEncode(append(stream, 0, 0, 0, 0), env)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(stream[at:], uint32(len(stream)-at-4))
	return stream
}

// The reader sees whatever segmentation the network chose: a stream dribbled
// in a byte at a time, a thousand frames in one segment, and a frame larger
// than the read buffer in the middle must all decode to the same envelopes,
// and a frame that does not decode costs only itself.
func TestBufferedReadFraming(t *testing.T) {
	leakcheck.Check(t)
	from, self := id.AppServer(1), id.AppServer(2)
	const frames = 1000
	var want []msg.Envelope
	for i := 0; i < frames; i++ {
		rid := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
		var p msg.Payload = msg.Prepare{RID: rid}
		if i%3 == 1 {
			p = msg.RData{Session: 1791072000123456789, Seq: uint64(i), Low: 1, Inner: msg.Request{RID: rid, Body: bytes.Repeat([]byte{byte(i)}, 1+i%200)}}
		}
		want = append(want, msg.Envelope{From: from, To: self, Payload: p})
	}
	big := msg.Envelope{From: from, To: self, Payload: msg.Request{Body: bytes.Repeat([]byte("x"), 2*retainedReadBuf)}}
	corrupt := []byte{0, 0, 0, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF} // a whole frame of garbage

	// The plain stream, with the corrupt frame a third of the way in.
	var plain []byte
	for i, env := range want {
		if i == frames/3 {
			plain = append(plain, corrupt...)
		}
		plain = appendFrame(t, plain, env)
	}
	// The same with the oversize frame in the middle.
	var withBig []byte
	var wantBig []msg.Envelope
	for i, env := range want {
		if i == frames/2 {
			withBig = appendFrame(t, withBig, big)
			wantBig = append(wantBig, big)
		}
		withBig = appendFrame(t, withBig, env)
		wantBig = append(wantBig, env)
	}

	for _, tc := range []struct {
		name   string
		stream []byte
		chunk  int // bytes per Write; 0 = all at once
		want   []msg.Envelope
		wire   uint64 // frames on the wire, decodable or not
	}{
		{"byte at a time", plain, 1, want, frames + 1},
		{"one write", plain, 0, want, frames + 1},
		{"oversize frame in the middle", withBig, 0, wantBig, frames + 1},
		{"chunks that straddle every boundary", withBig, 4093, wantBig, frames + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := Listen(Config{Self: self, Listen: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			c, err := net.Dial("tcp", ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			go func() {
				chunk := tc.chunk
				if chunk == 0 {
					chunk = len(tc.stream)
				}
				for rest := tc.stream; len(rest) > 0; {
					n := min(chunk, len(rest))
					if _, err := c.Write(rest[:n]); err != nil {
						return // the test ended first
					}
					rest = rest[n:]
				}
			}()
			for i, w := range tc.want {
				got := recvOne(t, ep, 30*time.Second)
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("envelope %d:\n got %+v\nwant %+v", i, got, w)
				}
			}
			if got := ep.Stats().FramesRecv; got != tc.wire {
				t.Errorf("FramesRecv = %d, want %d", got, tc.wire)
			}
			if got := ep.Stats().BytesRecv; got != uint64(len(tc.stream)) {
				t.Errorf("BytesRecv = %d, want %d", got, len(tc.stream))
			}
		})
	}
}
