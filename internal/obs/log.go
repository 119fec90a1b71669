package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// Level orders log severities; it is slog's.
type Level = slog.Level

// The logger's severity levels; the default threshold is LevelInfo.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// Logger is log/slog's text handler, without the time key and with the
// level in lower case, emitting one key=value line per entry:
//
//	level=info msg="archives written" dir=run1 metahosts=3
//
// It is safe for concurrent use and deliberately timestamp-free so test
// output stays deterministic. Debug, Info, Warn and Error are slog's, so
// go vet checks the key/value pairs of every call.
type Logger struct {
	*slog.Logger
	level slog.LevelVar
}

// NewLogger creates a logger writing to w (nil selects os.Stderr) at
// LevelInfo.
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		w = os.Stderr
	}
	l := new(Logger)
	l.Logger = slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: &l.level, ReplaceAttr: untimed}))
	return l
}

// untimed drops the time key and spells the level in lower case.
func untimed(_ []string, a slog.Attr) slog.Attr {
	switch a.Key {
	case slog.TimeKey:
		return slog.Attr{}
	case slog.LevelKey:
		a.Value = slog.StringValue(strings.ToLower(a.Value.String()))
	}
	return a
}

// SetLevel sets the minimum level that is emitted.
func (l *Logger) SetLevel(lv Level) { l.level.Set(lv) }

// Level returns the current threshold.
func (l *Logger) Level() Level { return l.level.Level() }

// Fatal logs at error level on the Default logger and exits with status
// 1. The CLIs route every fatal path through here so exit messages share
// one format.
func Fatal(msg string, kv ...any) {
	Default.Log.Error(msg, kv...)
	os.Exit(1)
}
