package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// windowTimer records what the window asks of its clock.
type windowTimer struct {
	armed  bool
	resets int
}

func (t *windowTimer) Reset(time.Duration) bool {
	was := t.armed
	t.armed = true
	t.resets++
	return was
}

func (t *windowTimer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

// TestWindow drives the go-back-N window through tables of push, admit,
// ACK and timeout sequences. Every frame carries its own sequence number
// as its one byte, so the retained frames must always read base, base+1,
// and so on. It kills, each seen failing on a scratch copy:
//   - the cumulative-ACK off-by-one (ack releasing seq-base±1 frames);
//   - release-before-ACK (ack bounding n by the retained frames rather
//     than the sent ones, so an ACK naming an unsent frame releases it);
//   - resend-from-base+1 (expire resending frames[1:sent]).
func TestWindow(t *testing.T) {
	// ops: p = push unsent, P = push in flight, a = admit, kN = ACK seq N,
	// x = timeout, g = timeout with the owner giving up.
	cases := []struct {
		name  string
		limit int
		ops   []string
		// want: base, retained count, in flight, every resend in order
		// (frame bytes), admitted frames in order, timer armed.
		base             uint32
		kept, sent       int
		resent, admitted string
		armed            bool
	}{
		{"admit up to the limit", 2, []string{"p", "p", "p", "a"}, 0, 3, 2, "", "\x00\x01", true},
		{"cumulative ACK releases below seq", 4, []string{"p", "p", "p", "a", "k2"}, 2, 1, 1, "", "\x00\x01\x02", true},
		{"ACK admits the next frame", 2, []string{"p", "p", "p", "a", "k1", "a"}, 1, 2, 2, "", "\x00\x01\x02", true},
		{"stale ACK releases nothing", 4, []string{"p", "p", "a", "k1", "k1", "k0"}, 1, 1, 1, "", "\x00\x01", true},
		{"ACK of an unsent frame releases nothing", 2, []string{"p", "p", "p", "a", "k3"}, 0, 3, 2, "", "\x00\x01", true},
		{"last ACK stops the clock", 4, []string{"p", "p", "a", "k2"}, 2, 0, 0, "", "\x00\x01", false},
		{"timeout resends from base", 4, []string{"p", "p", "p", "a", "k1", "x"}, 1, 2, 2, "|\x01\x02", "\x00\x01\x02", true},
		{"timeout resends only what is in flight", 2, []string{"p", "p", "p", "a", "x", "x"}, 0, 3, 2, "|\x00\x01|\x00\x01", "\x00\x01", true},
		{"in-flight pushes resend in full past the limit", 2, []string{"P", "P", "P", "k1", "x"}, 1, 2, 2, "|\x01\x02", "", true},
		{"give-up leaves the clock stopped", 4, []string{"p", "a", "g"}, 0, 1, 1, "|\x00", "\x00", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tm := &windowTimer{}
			var resent, admitted []byte
			giveUp := false
			w := &window{limit: tc.limit, rto: time.Millisecond, timer: tm,
				resend: func(frames [][]byte) bool {
					resent = append(resent, '|')
					for _, f := range frames {
						resent = append(resent, f...)
					}
					return !giveUp
				}}
			for _, op := range tc.ops {
				switch op[0] {
				case 'p', 'P':
					if w.push([]byte{byte(w.next())}, op == "P") {
						w.restart()
					}
				case 'a':
					for _, f := range w.admit() {
						admitted = append(admitted, f...)
					}
				case 'k':
					var seq uint32
					fmt.Sscan(op[1:], &seq)
					if w.ack(seq) > 0 {
						w.restart()
					}
				case 'x', 'g':
					giveUp = op == "g"
					tm.armed = false // the timer fired
					w.expire()
				}
			}
			for i, f := range w.frames {
				if !bytes.Equal(f, []byte{byte(w.base) + byte(i)}) {
					t.Fatalf("frames[%d] = %v, want sequence %d: retained frames misaligned with base", i, f, w.base+uint32(i))
				}
			}
			if w.base != tc.base || len(w.frames) != tc.kept || w.sent != tc.sent {
				t.Errorf("base %d, %d kept, %d in flight; want %d, %d, %d",
					w.base, len(w.frames), w.sent, tc.base, tc.kept, tc.sent)
			}
			if string(resent) != tc.resent || string(admitted) != tc.admitted {
				t.Errorf("resent %q, admitted %q; want %q, %q", resent, admitted, tc.resent, tc.admitted)
			}
			if tm.armed != tc.armed {
				t.Errorf("timer armed %v, want %v", tm.armed, tc.armed)
			}
		})
	}
}
