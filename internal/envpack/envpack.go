// Package envpack builds, packs, unpacks, and relocates Python environments,
// mirroring the conda / conda-pack workflow of the LFM paper (§V-C, §V-D):
// resolve a dependency list, install it into an environment directory,
// capture the environment as a tarball, move the tarball to node-local
// storage, extract it, and rewrite the environment prefix for its new home.
//
// Packing is real: Pack produces a genuine .tar.gz whose layout follows a
// Conda environment (conda-meta/ metadata, one directory per package, and
// placeholder payload files). Payload bytes are scaled down from the true
// installed sizes (PayloadScale) so that artifacts remain manageable while
// preserving the file-count structure that drives metadata-load behaviour.
// The true sizes are recorded in the manifest and used by the cost model.
package envpack

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lfm/internal/pypkg"
)

// ManifestPackage describes one package in a packed environment.
type ManifestPackage struct {
	Name           string `json:"name"`
	Version        string `json:"version"`
	FileCount      int    `json:"file_count"`
	InstalledBytes int64  `json:"installed_bytes"`
	ArchiveBytes   int64  `json:"archive_bytes"`
	NonPython      bool   `json:"non_python,omitempty"`
}

// Manifest is the metadata stored inside every packed environment.
type Manifest struct {
	Name     string            `json:"name"`
	Prefix   string            `json:"prefix"`
	Packages []ManifestPackage `json:"packages"`
	// TotalFiles and TotalBytes are the true (unscaled) environment totals.
	TotalFiles int   `json:"total_files"`
	TotalBytes int64 `json:"total_bytes"`
}

// Packer controls tarball generation.
type Packer struct {
	// PayloadScale divides true installed bytes when generating placeholder
	// payloads. 1 packs at full size. Default 1000.
	PayloadScale int64
	// MaxFilesPerPackage caps per-package placeholder file entries; file
	// counts above the cap are represented by the manifest only. Default
	// 2000, which keeps huge stacks (TensorFlow: ~26k files) packable in
	// tests while preserving structure for typical packages.
	MaxFilesPerPackage int
	// Prefix is the environment's install prefix recorded for relocation.
	Prefix string
}

// DefaultPacker returns a packer with the defaults described above.
func DefaultPacker() *Packer {
	return &Packer{PayloadScale: 1000, MaxFilesPerPackage: 2000, Prefix: "/home/user/miniconda3/envs/app"}
}

// Tarball is a packed environment.
type Tarball struct {
	Name string
	// Data is the gzip-compressed tar stream.
	Data []byte
	// Manifest is the environment metadata (also stored inside Data).
	Manifest Manifest
	// Entries is the number of real tar entries written.
	Entries int
}

// PackedBytes reports the tarball's compressed size.
func (t *Tarball) PackedBytes() int64 { return int64(len(t.Data)) }

// Pack captures a resolved environment into a tarball.
func (p *Packer) Pack(name string, res *pypkg.Resolution) (*Tarball, error) {
	if p.PayloadScale <= 0 || p.MaxFilesPerPackage <= 0 {
		return nil, fmt.Errorf("envpack: invalid packer configuration %+v", p)
	}
	man := Manifest{Name: name, Prefix: p.Prefix}
	for _, pkg := range res.Packages {
		man.Packages = append(man.Packages, ManifestPackage{
			Name:           pkg.Name,
			Version:        pkg.Version.String(),
			FileCount:      pkg.FileCount,
			InstalledBytes: pkg.InstalledBytes,
			ArchiveBytes:   pkg.ArchiveBytes,
			NonPython:      pkg.NonPython,
		})
		man.TotalFiles += pkg.FileCount
		man.TotalBytes += pkg.InstalledBytes
	}

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	entries := 0
	now := time.Unix(0, 0) // deterministic archives

	write := func(path string, data []byte) error {
		hdr := &tar.Header{
			Name: path, Mode: 0o644, Size: int64(len(data)), ModTime: now,
			Typeflag: tar.TypeReg,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		entries++
		return err
	}

	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := write("conda-meta/manifest.json", manJSON); err != nil {
		return nil, err
	}
	if err := write("conda-meta/prefix", []byte(p.Prefix+"\n")); err != nil {
		return nil, err
	}

	for _, pkg := range res.Packages {
		dir := "pkgs/" + pkg.Name + "-" + pkg.Version.String()
		meta, err := json.Marshal(pkg)
		if err != nil {
			return nil, err
		}
		if err := write(dir+"/info.json", meta); err != nil {
			return nil, err
		}
		files := pkg.FileCount
		if files > p.MaxFilesPerPackage {
			files = p.MaxFilesPerPackage
		}
		payload := pkg.InstalledBytes / p.PayloadScale
		for i := 0; i < files; i++ {
			var data []byte
			if i == 0 && payload > 0 {
				data = make([]byte, payload)
			}
			if err := write(fmt.Sprintf("%s/f%05d.py", dir, i), data); err != nil {
				return nil, err
			}
		}
	}

	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return &Tarball{Name: name, Data: buf.Bytes(), Manifest: man, Entries: entries}, nil
}

// ReadManifest extracts the manifest from a packed environment without
// unpacking payload files.
func ReadManifest(data []byte) (*Manifest, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("envpack: not a packed environment: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("envpack: manifest not found")
		}
		if err != nil {
			return nil, err
		}
		if hdr.Name == "conda-meta/manifest.json" {
			var man Manifest
			if err := json.NewDecoder(tr).Decode(&man); err != nil {
				return nil, err
			}
			return &man, nil
		}
	}
}

// Unpack extracts a packed environment into dir (which must exist) and
// returns the manifest. Paths are sanitized against traversal.
func Unpack(data []byte, dir string) (*Manifest, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("envpack: not a packed environment: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	var man *Manifest
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		clean := filepath.Clean(hdr.Name)
		if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
			return nil, fmt.Errorf("envpack: unsafe path %q in archive", hdr.Name)
		}
		dst := filepath.Join(dir, clean)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := io.Copy(f, tr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		if clean == filepath.Join("conda-meta", "manifest.json") {
			raw, err := os.ReadFile(dst)
			if err != nil {
				return nil, err
			}
			man = new(Manifest)
			if err := json.Unmarshal(raw, man); err != nil {
				return nil, err
			}
		}
	}
	if man == nil {
		return nil, fmt.Errorf("envpack: manifest not found")
	}
	return man, nil
}

// Relocate rewrites the environment prefix after unpacking into a new
// directory — the conda-unpack step the paper performs to "reconfigure the
// package for its new LFM". It returns the previous prefix.
func Relocate(dir, newPrefix string) (string, error) {
	prefixFile := filepath.Join(dir, "conda-meta", "prefix")
	old, err := os.ReadFile(prefixFile)
	if err != nil {
		return "", fmt.Errorf("envpack: not an unpacked environment: %w", err)
	}
	if err := os.WriteFile(prefixFile, []byte(newPrefix+"\n"), 0o644); err != nil {
		return "", err
	}
	return strings.TrimSpace(string(old)), nil
}
