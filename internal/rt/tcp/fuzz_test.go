package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"speccat/internal/rt"
)

// fuzzCodec builds the codec the fuzz target decodes against (it cannot
// take *testing.T, so this mirrors newTestCodec without the helper).
func fuzzCodec() *Codec {
	c := NewCodec()
	enc, dec := jsonCodecFor[testPayload]()
	_ = c.Register("test.kind", enc, dec)
	return c
}

// FuzzFrameDecode proves frame decoding is total: arbitrary bytes —
// truncated, corrupt, bit-flipped, oversized — either decode to a
// message or return an error wrapping one of the frame/codec sentinels.
// Never a panic, never an unclassified error, never an allocation driven
// by an attacker-controlled length beyond MaxFrame.
func FuzzFrameDecode(f *testing.F) {
	codec := fuzzCodec()

	// Seed with a valid frame and targeted malformations of it.
	valid, err := EncodeFrame(codec, rt.Message{
		From: 1, To: 2, Kind: "test.kind",
		Payload: testPayload{Txn: "seed", N: 7}, SentAt: 42,
	})
	if err != nil {
		f.Fatalf("encode seed: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:3])            // truncated length prefix
	f.Add(valid[:len(valid)-2]) // truncated body
	f.Add([]byte{})             // empty
	badMagic := append([]byte(nil), valid...)
	badMagic[4] = 'X'
	f.Add(badMagic)
	badVersion := append([]byte(nil), valid...)
	badVersion[6] = 0xfe
	f.Add(badVersion)
	oversize := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(oversize[0:4], MaxFrame+1)
	f.Add(oversize)
	badKindLen := append([]byte(nil), valid...)
	badKindLen[23], badKindLen[24] = 0xff, 0xff
	f.Add(badKindLen)
	unknownKind := append([]byte(nil), valid...)
	unknownKind[25] = 'x' // first kind byte: "xest.kind" is unregistered
	f.Add(unknownKind)
	badPayload := append([]byte(nil), valid...)
	badPayload[len(badPayload)-1] = '{' // break the JSON payload
	f.Add(badPayload)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeFrame(codec, data)
		if err != nil {
			ok := errors.Is(err, ErrCorrupt) || errors.Is(err, ErrOversize) ||
				errors.Is(err, ErrVersion) || errors.Is(err, ErrUnknownKind) ||
				errors.Is(err, ErrCodec)
			if !ok {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n < 4 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A successful decode must re-encode: the codec is total over
		// whatever it accepted.
		if _, err := EncodeFrame(codec, msg); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
	})
}

// FuzzReadFrame runs the same totality property through the streaming
// reader, which is the path real connections exercise, and reads every
// input a second time the way readLoop does, through a bufio.Reader, here
// over a source that yields one byte per read: both reads must produce the
// same messages and the same error classes.
func FuzzReadFrame(f *testing.F) {
	codec := fuzzCodec()
	valid, err := EncodeFrame(codec, rt.Message{From: 1, To: 2, Kind: "test.kind", Payload: testPayload{Txn: "s"}})
	if err != nil {
		f.Fatalf("encode seed: %v", err)
	}
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two frames back to back
	f.Add(valid[:5])

	f.Fuzz(func(t *testing.T, data []byte) {
		direct := readAll(&sliceReader{data: data}, codec)
		buffered := readAll(bufio.NewReaderSize(iotest.OneByteReader(&sliceReader{data: data}), 16), codec)
		if !reflect.DeepEqual(direct, buffered) {
			t.Fatalf("direct read %+v, buffered read %+v", direct, buffered)
		}
	})
}

// read is one ReadFrame result: the message and its error's class.
type read struct {
	msg   rt.Message
	class string
}

// readAll reads frames as readLoop does, past payload errors, until an
// error that ends the stream.
func readAll(r io.Reader, codec *Codec) []read {
	var out []read
	for {
		msg, err := ReadFrame(r, codec)
		c := errClass(err)
		out = append(out, read{msg, c})
		if c != "" && c != "payload" {
			return out
		}
	}
}

// errClass names the sentinel family of a ReadFrame error.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrUnknownKind), errors.Is(err, ErrCodec):
		return "payload"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrOversize):
		return "oversize"
	case errors.Is(err, ErrVersion):
		return "version"
	}
	return "stream"
}

// sliceReader is a minimal io.Reader over a byte slice (avoids pulling
// bytes.Reader's extra methods into the fuzz surface).
type sliceReader struct {
	data []byte
	off  int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, errEOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

var errEOF = errors.New("eof")
