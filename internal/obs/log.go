package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// Level orders log severities.
type Level int32

// The logger's severity levels; the default threshold is LevelInfo.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the key=value spelling of the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// Logger is a leveled structured logger emitting one key=value line
// per entry:
//
//	level=info msg="archives written" dir=run1 metahosts=3
//
// It is safe for concurrent use and deliberately timestamp-free so
// test output stays deterministic.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
	exit  func(int)
}

// NewLogger creates a logger writing to w (nil selects os.Stderr) at
// LevelInfo.
func NewLogger(w io.Writer) *Logger {
	l := &Logger{w: w, exit: os.Exit}
	l.level.Store(int32(LevelInfo))
	return l
}

// SetLevel sets the minimum level that is emitted.
func (l *Logger) SetLevel(lv Level) { l.level.Store(int32(lv)) }

// Level returns the current threshold.
func (l *Logger) Level() Level { return Level(l.level.Load()) }

// SetExit replaces the process-exit function Fatal uses; tests install
// a recorder to assert the exit code without dying.
func (l *Logger) SetExit(fn func(int)) {
	l.mu.Lock()
	l.exit = fn
	l.mu.Unlock()
}

// needsQuotes reports whether a value must be quoted to stay one
// unambiguous key=value token.
func needsQuotes(s string) bool {
	if s == "" {
		return true
	}
	return strings.ContainsAny(s, " \t\n\"=")
}

func formatValue(v any) string {
	s := fmt.Sprint(v)
	if needsQuotes(s) {
		return fmt.Sprintf("%q", s)
	}
	return s
}

func (l *Logger) log(lv Level, msg string, kv []any) {
	if lv < l.Level() {
		return
	}
	var b strings.Builder
	b.WriteString("level=")
	b.WriteString(lv.String())
	b.WriteString(" msg=")
	b.WriteString(formatValue(msg))
	for i := 0; i < len(kv); i += 2 {
		key := fmt.Sprint(kv[i])
		var val string
		if i+1 < len(kv) {
			val = formatValue(kv[i+1])
		} else {
			val = "\"(MISSING)\""
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	b.WriteByte('\n')
	l.mu.Lock()
	w := l.w
	if w == nil {
		w = os.Stderr
	}
	io.WriteString(w, b.String())
	l.mu.Unlock()
}

// Debug logs at debug level; kv is alternating keys and values.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// Fatal logs at error level (regardless of threshold) and exits the
// process with status 1.
func (l *Logger) Fatal(msg string, kv ...any) {
	l.log(LevelError, msg, kv)
	l.mu.Lock()
	exit := l.exit
	l.mu.Unlock()
	if exit == nil {
		exit = os.Exit
	}
	exit(1)
}
