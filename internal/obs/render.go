// RenderTrace: the one switch behind every CLI's -trace-format flag.

package obs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
)

// TraceFormats lists the formats RenderTrace accepts.
func TraceFormats() []string { return []string{"text", "perfetto", "report"} }

// ValidateTraceFormat reports whether RenderTrace accepts format, so a
// caller can reject an unknown name before recording anything.
func ValidateTraceFormat(format string) error {
	if slices.Contains(TraceFormats(), format) {
		return nil
	}
	return fmt.Errorf("obs: unknown trace format %q (want one of: %s)",
		format, strings.Join(TraceFormats(), ", "))
}

// RenderTrace renders one recorded stream in a named format: "text" (the
// legacy per-retire line format), "perfetto" (Chrome trace-event JSON,
// validated against the schema before being returned), or "report" (the
// stall-attribution table). Events must be in canonical order.
func RenderTrace(format string, meta Meta, events []Event) ([]byte, error) {
	var buf bytes.Buffer
	switch format {
	case "text":
		t := NewText(&buf)
		t.Begin(meta)
		for _, e := range events {
			t.Emit(e)
		}
		if err := t.Close(); err != nil {
			return nil, err
		}
	case "perfetto":
		if err := WritePerfetto(&buf, meta, events); err != nil {
			return nil, err
		}
		if err := ValidatePerfetto(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("obs: perfetto export failed self-validation: %w", err)
		}
	case "report":
		buf.WriteString(BuildReport(meta, events).Format())
	default:
		return nil, ValidateTraceFormat(format)
	}
	return buf.Bytes(), nil
}
