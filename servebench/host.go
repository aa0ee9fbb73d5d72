package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// meta is the run metadata every result carries. Absolute figures only
// compare on one host; across hosts compare ratios.
type meta struct {
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Kernel           string `json:"kernel"`
	Workload         string `json:"workload"`
	Seed             uint64 `json:"seed"`
	Seconds          int    `json:"seconds"`
	Clients          int    `json:"clients"`
	GitRevision      string `json:"git_revision"`
	// SourceDigest hashes the module's Go sources and go.mod files, which
	// names the code even in a checkout without git metadata.
	SourceDigest string `json:"source_digest"`
}

func hostMeta(cfg config, w *workload) meta {
	return meta{
		CPU:              cpuModel(),
		NProc:            runtime.NumCPU(),
		ServerGOMAXPROCS: cfg.GOMAXPROCS,
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		Kernel:           readTrim("/proc/sys/kernel/osrelease"),
		Workload:         w.Name,
		Seed:             w.Seed,
		Seconds:          cfg.Seconds,
		Clients:          w.Clients,
		GitRevision:      gitRevision(),
		SourceDigest:     sourceDigest("."),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is HEAD of the repository rooted at the working directory,
// or "none" when the directory is not one (an exported checkout).
func gitRevision() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is a SHA-256 over the paths and contents of every .go and
// go.mod file under root, skipping dot-directories (build output, VCS).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the digest less specific
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
