package notify

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// sendRaw writes data to a fresh connection in the background and returns
// the server's first status line; an empty string means the server closed
// without one.
func sendRaw(t *testing.T, addr string, data []byte) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() {
		// The server may hang up mid-write; the status line is what counts.
		_, _ = conn.Write(data)
	}()
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("reading status: %v", err)
	}
	return strings.TrimRight(status, "\r\n")
}

func TestOversizedLine(t *testing.T) {
	s, addr := startServer(t, func(string) error { return nil })
	// The longest accepted line has maxLineBytes-1 bytes before its '\n',
	// with or without a '\r' among them.
	for _, line := range []string{
		strings.Repeat("x", maxLineBytes-1),
		strings.Repeat("x", maxLineBytes-2) + "\r",
	} {
		if status := sendRaw(t, addr, []byte(line+"\n.\n")); status != "OK" {
			t.Errorf("%d-byte line: status %q, want OK", len(line), status)
		}
	}
	for _, line := range []string{
		strings.Repeat("x", maxLineBytes),
		strings.Repeat("x", maxLineBytes-1) + "\r",
		strings.Repeat("x", 4*maxLineBytes), // no newline in sight
	} {
		if status := sendRaw(t, addr, []byte(line+"\n.\n")); status != statusTooLarge {
			t.Errorf("%d-byte line: status %q, want %q", len(line), status, statusTooLarge)
		}
	}
	if s.Received() != 2 {
		t.Errorf("Received = %d, want 2", s.Received())
	}
}

func TestOversizedMessage(t *testing.T) {
	s, addr := startServer(t, func(string) error { return nil })
	line := strings.Repeat("y", 1023) + "\n" // 1 KiB delivered per line
	fits := strings.Repeat(line, maxMessageBytes/len(line))
	if status := sendRaw(t, addr, []byte(fits+".\n")); status != "OK" {
		t.Fatalf("%d-byte message: status %q, want OK", len(fits), status)
	}
	over := fits + "z\n"
	if status := sendRaw(t, addr, []byte(over+".\n")); status != statusTooLarge {
		t.Fatalf("%d-byte message: status %q, want %q", len(over), status, statusTooLarge)
	}
	// An endless message is cut off at the bound rather than buffered.
	endless := bytes.Repeat([]byte(line), 4*maxMessageBytes/len(line))
	if status := sendRaw(t, addr, endless); status != statusTooLarge {
		t.Fatalf("endless message: status %q, want %q", status, statusTooLarge)
	}
	if s.Received() != 1 {
		t.Errorf("Received = %d, want 1", s.Received())
	}
}

// FuzzFraming checks the line protocol both ways. Any '\r'-free text that
// fits the bounds, sent with Client.Send over net.Pipe, reaches the
// handler unchanged up to the protocol's single trailing newline. Any raw
// bytes written straight to the server never make it panic or hang.
func FuzzFraming(f *testing.F) {
	f.Add([]byte("Ticket-ID: TKT-000001\nVendor: v\n"))
	f.Add([]byte(".\n..\n...x\n.\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(""))
	f.Add([]byte("a\r\nb\r\n.\r\nreject\n.\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		text := strings.ReplaceAll(string(data), "\r", "")
		if fitsBounds(text) {
			want := strings.TrimRight(text, "\n") + "\n"
			var got string
			s := NewServer(func(m string) error { got = m; return nil })
			serverSide, clientSide := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.HandleConn(serverSide)
			}()
			c := NewClient(clientSide)
			err := c.Send(text)
			c.Close()
			<-done
			if err != nil {
				t.Fatalf("Send(%q): %v", text, err)
			}
			if got != want {
				t.Fatalf("Send(%q) delivered %q, want %q", text, got, want)
			}
		}

		s := NewServer(func(m string) error {
			if strings.Contains(m, "reject") {
				return errors.New("rejected\nover two lines")
			}
			return nil
		})
		serverSide, clientSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.HandleConn(serverSide)
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, clientSide) // status lines
		}()
		_, _ = clientSide.Write(data) // fails once the server hangs up
		clientSide.Close()
		<-done
		<-drained
	})
}

// fitsBounds reports whether Client.Send's framing of text stays within
// the server's line and message bounds.
func fitsBounds(text string) bool {
	text = strings.TrimRight(text, "\n")
	if len(text)+1 > maxMessageBytes {
		return false
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, ".") {
			line = "." + line // dot-stuffed on the wire
		}
		if len(line) >= maxLineBytes {
			return false
		}
	}
	return true
}
