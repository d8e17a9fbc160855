package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// MaxPayload is the protocol's per-frame payload limit: a frame of
// exactly this size signals that the payload continues in the next
// frame, and the logical packet ends at the first shorter frame.
const MaxPayload = 1<<24 - 1

// ErrPacketTooLarge is returned by ReadPacket when a logical packet
// exceeds the configured total cap. The continuation frames are drained
// (so the stream stays framed and an error packet can still be sent)
// but their contents are discarded.
var ErrPacketTooLarge = errors.New("wire: packet exceeds the maximum allowed size")

// writeBufSize is bufio's default, kept by measurement: a write per 4 KB
// instead of per packet was the whole gain (a ~13 KB serve_mixed reply:
// ~700 writes to 4), and 16, 32 and 64 KB read the same statements/s in
// paired runs. A larger reply spills a full buffer at a time.
const writeBufSize = 4 << 10

// Conn frames a net.Conn into MySQL packets: 3-byte little-endian
// payload length, 1-byte sequence id, payload. Sequence ids increment
// per frame and reset to 0 at each command boundary (ResetSeq); both
// sides verify them, so a desynchronized stream fails fast instead of
// misparsing.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	seq uint8
	// rhdr and whdr are the frame headers being read and written: as
	// locals they escape through the io interfaces, one allocation a frame.
	rhdr, whdr [4]byte
	// maxPayload is the frame-split threshold. It is MaxPayload in
	// production; tests lower it to exercise continuation frames
	// without 16MB statements.
	maxPayload int
	// maxTotal caps the reassembled logical packet; 0 means unbounded.
	maxTotal int
}

// NewConn wraps a network connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:         nc,
		br:         bufio.NewReader(nc),
		bw:         bufio.NewWriterSize(nc, writeBufSize),
		maxPayload: MaxPayload,
	}
}

// SetMaxPayload lowers the frame-split threshold (both peers must
// agree). Values are clamped to [16, MaxPayload].
func (c *Conn) SetMaxPayload(n int) {
	if n < 16 {
		n = 16
	}
	if n > MaxPayload {
		n = MaxPayload
	}
	c.maxPayload = n
}

// SetMaxTotal caps the reassembled logical packet size; 0 disables the
// cap. Servers set it so a hostile client cannot make them buffer an
// arbitrarily large statement.
func (c *Conn) SetMaxTotal(n int) { c.maxTotal = n }

// ResetSeq rewinds the sequence counter to 0: called by the client
// before each command, and by the server after reading one (responses
// continue the command's sequence).
func (c *Conn) ResetSeq() { c.seq = 0 }

// SetReadDeadline delegates to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr delegates to the underlying connection.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// readHeader reads one frame header and verifies its sequence id.
func (c *Conn) readHeader() (int, error) {
	h := c.rhdr[:]
	if _, err := io.ReadFull(c.br, h); err != nil {
		return 0, err
	}
	if h[3] != c.seq {
		return 0, fmt.Errorf("wire: out-of-order packet: got seq %d, want %d", h[3], c.seq)
	}
	c.seq++
	return int(h[0]) | int(h[1])<<8 | int(h[2])<<16, nil
}

// ReadPacket reads one logical packet, reassembling continuation
// frames. If the total exceeds maxTotal the remaining frames are read
// and discarded (keeping the stream framed) and ErrPacketTooLarge is
// returned.
func (c *Conn) ReadPacket() ([]byte, error) {
	var payload []byte
	total := 0
	oversized := false
	for {
		n, err := c.readHeader()
		if err != nil {
			return nil, err
		}
		total += n
		if !oversized && c.maxTotal > 0 && total > c.maxTotal {
			oversized = true
		}
		if oversized {
			if _, err := io.CopyN(io.Discard, c.br, int64(n)); err != nil {
				return nil, err
			}
		} else {
			// Each frame is read into the tail of the payload it extends.
			at := len(payload)
			payload = append(payload, make([]byte, n)...)
			if _, err := io.ReadFull(c.br, payload[at:]); err != nil {
				return nil, err
			}
		}
		if n < c.maxPayload {
			break
		}
	}
	if oversized {
		return nil, ErrPacketTooLarge
	}
	return payload, nil
}

// QueuePacket appends one logical packet to the write buffer, splitting
// it into frames at the split threshold. A payload that is an exact
// multiple of the threshold is terminated by an empty frame, as the
// protocol requires. Nothing need reach the peer before Flush; the
// payload has been copied or written on return, so the caller may reuse it.
func (c *Conn) QueuePacket(payload []byte) error {
	for len(payload) >= c.maxPayload {
		if err := c.writeFrame(payload[:c.maxPayload]); err != nil {
			return err
		}
		payload = payload[c.maxPayload:]
	}
	return c.writeFrame(payload)
}

// Flush sends everything queued.
func (c *Conn) Flush() error { return c.bw.Flush() }

// WritePacket queues one logical packet and flushes: the form for a
// message that is a whole turn of the conversation (a client command,
// the server greeting). A response of several packets queues them all
// and flushes once.
func (c *Conn) WritePacket(payload []byte) error {
	if err := c.QueuePacket(payload); err != nil {
		return err
	}
	return c.Flush()
}

func (c *Conn) writeFrame(p []byte) error {
	c.whdr = [4]byte{byte(len(p)), byte(len(p) >> 8), byte(len(p) >> 16), c.seq}
	c.seq++
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(p)
	return err
}
