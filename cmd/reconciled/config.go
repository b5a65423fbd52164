package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Config-file support: every flag can instead come from a file, so a
// deployment ships one reviewed config instead of a 20-flag command
// line. The format is flat "flag-name: value" lines (comments with #,
// values optionally quoted) — a YAML subset, without pulling in a YAML
// dependency. Values reach flag.Set as text, so a uint64 seed loads
// exactly:
//
//	# reconciled.yaml
//	listen: :7441
//	sets: alpha,beta
//	data-dir: /var/lib/reconciled
//
// Precedence is strict: a flag passed explicitly on the command line
// always beats the file; the file beats built-in defaults. Keys must
// name real flags (typos fail startup rather than silently doing
// nothing), and "config" itself cannot appear in a file.

// applyConfigFile loads path and applies its values to every flag in
// fs that was not set on the command line. Call after fs.Parse.
func applyConfigFile(path string, fs *flag.FlagSet) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	values, err := parseConfig(raw)
	if err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for key, value := range values {
		if key == "config" {
			return fmt.Errorf("config %s: a config file cannot set %q", path, key)
		}
		if fs.Lookup(key) == nil {
			return fmt.Errorf("config %s: unknown flag %q", path, key)
		}
		if explicit[key] {
			continue // command line wins
		}
		if err := fs.Set(key, value); err != nil {
			return fmt.Errorf("config %s: flag %q: %w", path, key, err)
		}
	}
	return nil
}

// parseConfig reads the flat "flag: value" lines into a key → value map.
func parseConfig(raw []byte) (map[string]string, error) {
	out := make(map[string]string)
	for i, line := range strings.Split(string(raw), "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if strings.HasPrefix(s, "{") {
			return nil, fmt.Errorf("line %d: JSON is not supported; write one \"flag: value\" per line", i+1)
		}
		key, value, ok := strings.Cut(s, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: want \"flag: value\", got %q", i+1, s)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if key == "" {
			return nil, fmt.Errorf("line %d: empty key", i+1)
		}
		// Strip a trailing comment, except inside a quoted value.
		if !strings.HasPrefix(value, `"`) && !strings.HasPrefix(value, `'`) {
			if j := strings.Index(value, " #"); j >= 0 {
				value = strings.TrimSpace(value[:j])
			}
		}
		value = unquote(value)
		if value == "" {
			return nil, fmt.Errorf("line %d: key %q has no value (nested structure is not supported)", i+1, key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", i+1, key)
		}
		out[key] = value
	}
	return out, nil
}

// unquote strips one level of matched single or double quotes.
func unquote(v string) string {
	if len(v) >= 2 {
		if (v[0] == '"' && v[len(v)-1] == '"') || (v[0] == '\'' && v[len(v)-1] == '\'') {
			return v[1 : len(v)-1]
		}
	}
	return v
}
