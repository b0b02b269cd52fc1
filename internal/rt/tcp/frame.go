package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"speccat/internal/rt"
)

// Wire format. Every message is one frame:
//
//	frame := length(4B big-endian, body size) body
//	body  := magic(2B "TP") version(1B) from(4B) to(4B) sentAt(8B)
//	         kindLen(2B) kind(kindLen B) payload(rest)
//
// The length prefix covers the body only. The payload bytes are the
// kind's registered codec encoding (Codec.Encode); the frame layer never
// interprets them. Decoding is total: truncated, corrupt, oversized or
// version-skewed bytes return wrapped ErrCorrupt-family sentinels,
// never a panic — FuzzFrameDecode pins that.
const (
	// FrameVersion is the current wire version; bump on any incompatible
	// layout change so mixed-version clusters fail loudly at decode.
	FrameVersion = 1
	// MaxFrame bounds a frame body. A length prefix beyond it is rejected
	// before allocation, so a corrupt or hostile peer cannot make the
	// reader allocate gigabytes.
	MaxFrame = 1 << 20

	magic0, magic1 = 'T', 'P'
	// headerLen is the fixed body prefix before the kind bytes.
	headerLen = 2 + 1 + 4 + 4 + 8 + 2
)

// Frame sentinels.
var (
	// ErrCorrupt is wrapped for any frame that does not decode: short
	// bodies, bad magic, truncated kinds. Payload decode failures surface
	// as ErrCodec/ErrUnknownKind from the codec instead.
	ErrCorrupt = errors.New("tcp: corrupt frame")
	// ErrOversize is wrapped when a frame's declared or actual body size
	// exceeds MaxFrame.
	ErrOversize = errors.New("tcp: oversized frame")
	// ErrVersion is wrapped when a frame carries an unknown wire version.
	ErrVersion = errors.New("tcp: unsupported frame version")
)

// EncodeFrame serializes msg into one frame (length prefix included),
// using codec for the payload. A nil payload encodes as zero payload
// bytes only when the codec says so — every kind goes through its
// registered encoder, so unknown kinds fail here, before any bytes move.
func EncodeFrame(codec *Codec, msg rt.Message) ([]byte, error) {
	payload, err := codec.Encode(msg.Kind, msg.Payload)
	if err != nil {
		return nil, err
	}
	if len(msg.Kind) > 0xffff {
		return nil, fmt.Errorf("%w: kind length %d", ErrOversize, len(msg.Kind))
	}
	bodyLen := headerLen + len(msg.Kind) + len(payload)
	if bodyLen > MaxFrame {
		return nil, fmt.Errorf("%w: body %d bytes > %d", ErrOversize, bodyLen, MaxFrame)
	}
	buf := make([]byte, 4+bodyLen)
	binary.BigEndian.PutUint32(buf[0:4], uint32(bodyLen))
	body := buf[4:]
	body[0], body[1], body[2] = magic0, magic1, FrameVersion
	binary.BigEndian.PutUint32(body[3:7], uint32(int32(msg.From)))
	binary.BigEndian.PutUint32(body[7:11], uint32(int32(msg.To)))
	binary.BigEndian.PutUint64(body[11:19], uint64(msg.SentAt))
	binary.BigEndian.PutUint16(body[19:21], uint16(len(msg.Kind)))
	copy(body[21:], msg.Kind)
	copy(body[21+len(msg.Kind):], payload)
	return buf, nil
}

// DecodeBody decodes one frame body (the bytes after the length prefix)
// into a message, using codec for the payload. Every malformation maps
// to a wrapped sentinel: ErrCorrupt for structure, ErrVersion for wire
// version skew, ErrOversize for size, ErrUnknownKind/ErrCodec from the
// payload codec. A payload error comes with the header's fields and no
// payload, so a reader can charge the frame to its sender.
func DecodeBody(codec *Codec, body []byte) (rt.Message, error) {
	if len(body) > MaxFrame {
		return rt.Message{}, fmt.Errorf("%w: body %d bytes > %d", ErrOversize, len(body), MaxFrame)
	}
	if len(body) < headerLen {
		return rt.Message{}, fmt.Errorf("%w: body %d bytes < header %d", ErrCorrupt, len(body), headerLen)
	}
	if body[0] != magic0 || body[1] != magic1 {
		return rt.Message{}, fmt.Errorf("%w: bad magic %#x%#x", ErrCorrupt, body[0], body[1])
	}
	if body[2] != FrameVersion {
		return rt.Message{}, fmt.Errorf("%w: version %d, want %d", ErrVersion, body[2], FrameVersion)
	}
	kindLen := int(binary.BigEndian.Uint16(body[19:21]))
	if headerLen+kindLen > len(body) {
		return rt.Message{}, fmt.Errorf("%w: kind length %d exceeds body", ErrCorrupt, kindLen)
	}
	msg := rt.Message{
		From:   rt.NodeID(int32(binary.BigEndian.Uint32(body[3:7]))),
		To:     rt.NodeID(int32(binary.BigEndian.Uint32(body[7:11]))),
		Kind:   string(body[21 : 21+kindLen]),
		SentAt: rt.Time(binary.BigEndian.Uint64(body[11:19])),
	}
	var err error
	msg.Payload, err = codec.Decode(msg.Kind, body[21+kindLen:])
	return msg, err
}

// DecodeFrame decodes one full frame (length prefix plus body) from a
// byte slice, returning the message and the bytes consumed. It is the
// slice-level twin of ReadFrame and the entry point FuzzFrameDecode
// drives.
func DecodeFrame(codec *Codec, data []byte) (rt.Message, int, error) {
	if len(data) < 4 {
		return rt.Message{}, 0, fmt.Errorf("%w: %d bytes < length prefix", ErrCorrupt, len(data))
	}
	n := binary.BigEndian.Uint32(data[0:4])
	if n > MaxFrame {
		return rt.Message{}, 0, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversize, n, MaxFrame)
	}
	if len(data) < 4+int(n) {
		return rt.Message{}, 0, fmt.Errorf("%w: declared body %d bytes, have %d", ErrCorrupt, n, len(data)-4)
	}
	msg, err := DecodeBody(codec, data[4:4+int(n)])
	if err != nil {
		return rt.Message{}, 0, err
	}
	return msg, 4 + int(n), nil
}

// ReadFrame reads one frame from r. Stream errors pass through (io.EOF
// at a frame boundary means a clean close); malformed bytes are the same
// wrapped sentinels DecodeBody returns.
func ReadFrame(r io.Reader, codec *Codec) (rt.Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return rt.Message{}, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrame {
		return rt.Message{}, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversize, n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return rt.Message{}, fmt.Errorf("%w: truncated body: %w", ErrCorrupt, err)
	}
	return DecodeBody(codec, body)
}
