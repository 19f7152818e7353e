package envpack

import (
	"lfm/internal/pypkg"
	"lfm/internal/sim"
)

// CostModel estimates the wall-clock cost of environment operations for the
// simulator. Parameters are calibrated so single-node magnitudes match the
// paper's Table II (create times of tens of seconds for small environments
// through several minutes for TensorFlow-scale stacks) and Table I (Conda
// activation well under a second; containers seconds to tens of seconds).
type CostModel struct {
	// SolverBase and SolverPerPackage model Conda's dependency solve.
	SolverBase       sim.Time
	SolverPerPackage sim.Time

	// DownloadBandwidth is bytes/second fetching package archives.
	DownloadBandwidth float64

	// InstallPerFile and InstallPerByte model extracting and linking
	// packages into an environment.
	InstallPerFile sim.Time
	InstallPerByte sim.Time

	// DecompressBandwidth is the conda-pack tarball extraction rate, in
	// (installed) bytes/second.
	DecompressBandwidth float64

	// PackRatio is packed bytes / installed bytes.
	PackRatio float64

	// RelocatePerFile models conda-unpack prefix rewriting.
	RelocatePerFile sim.Time

	// ActivateTime is Conda environment activation (env-var changes only).
	ActivateTime sim.Time

	// AnalyzeBase and AnalyzePerPackage model the static analysis tool:
	// parsing the function and introspecting the environment.
	AnalyzeBase       sim.Time
	AnalyzePerPackage sim.Time

	// ImportPerFile and ImportPerByte model the Python-side cost of
	// importing a package's modules once its files are locally readable
	// (bytecode compilation and module initialization).
	ImportPerFile sim.Time
	ImportPerByte sim.Time

	// ImportMetaFraction is the fraction of a package's files touched by
	// one import (metadata operations on the filesystem holding it).
	ImportMetaFraction float64

	// WarmMetaFloor and WarmMetaCeil bound the fraction of cold metadata
	// operations that later importers of the same closure still pay once
	// the metadata server's cache is warm. The fraction scales with the
	// closure's file count (WarmMetaFilesScale files => fraction 1.0
	// before clamping): big stacks evict cache entries faster, which is
	// why TensorFlow-sized imports keep hammering the server while NumPy
	// imports go quiet after the first client (Figure 4's split).
	WarmMetaFloor      float64
	WarmMetaCeil       float64
	WarmMetaFilesScale float64
}

// DefaultCostModel returns the calibrated model described above.
func DefaultCostModel() CostModel {
	return CostModel{
		SolverBase:          8 * sim.Second,
		SolverPerPackage:    350 * sim.Millisecond,
		DownloadBandwidth:   30e6, // 30 MB/s from package mirrors
		InstallPerFile:      400e-6,
		InstallPerByte:      sim.Time(1.0 / 200e6), // 200 MB/s local install
		DecompressBandwidth: 250e6,
		PackRatio:           0.45,
		RelocatePerFile:     60e-6,
		ActivateTime:        120 * sim.Millisecond,
		AnalyzeBase:         300 * sim.Millisecond,
		AnalyzePerPackage:   40 * sim.Millisecond,
		ImportPerFile:       250e-6,
		ImportPerByte:       sim.Time(1.0 / 500e6),
		ImportMetaFraction:  0.35,
		WarmMetaFloor:       0.01,
		WarmMetaCeil:        0.25,
		WarmMetaFilesScale:  200000,
	}
}

// WarmMetaFraction returns the fraction of cold metadata operations charged
// to importers once the closure's metadata is server-cached.
func (c CostModel) WarmMetaFraction(files int) float64 {
	if c.WarmMetaFilesScale <= 0 {
		return 1
	}
	f := float64(files) / c.WarmMetaFilesScale
	if f < c.WarmMetaFloor {
		f = c.WarmMetaFloor
	}
	if f > c.WarmMetaCeil {
		f = c.WarmMetaCeil
	}
	return f
}

// AnalyzeTime estimates static dependency analysis for a closure.
func (c CostModel) AnalyzeTime(res *pypkg.Resolution) sim.Time {
	return c.AnalyzeBase + sim.Time(res.Len())*c.AnalyzePerPackage
}

// SolveTime estimates the Conda dependency solve alone.
func (c CostModel) SolveTime(res *pypkg.Resolution) sim.Time {
	return c.SolverBase + sim.Time(res.Len())*c.SolverPerPackage
}

// CreateTime estimates building the environment from scratch on a node with
// package downloads: solve + download + install.
func (c CostModel) CreateTime(res *pypkg.Resolution) sim.Time {
	download := sim.Time(float64(res.TotalArchiveBytes()) / c.DownloadBandwidth)
	install := sim.Time(res.TotalFiles())*c.InstallPerFile +
		sim.Time(res.TotalInstalledBytes())*c.InstallPerByte
	return c.SolveTime(res) + download + install
}

// PackedBytes estimates the conda-pack tarball size for a closure.
func (c CostModel) PackedBytes(res *pypkg.Resolution) int64 {
	return int64(float64(res.TotalInstalledBytes()) * c.PackRatio)
}

// UnpackTime estimates extracting a packed environment to local disk and
// relocating it (conda-unpack).
func (c CostModel) UnpackTime(res *pypkg.Resolution) sim.Time {
	extract := sim.Time(float64(res.TotalInstalledBytes()) / c.DecompressBandwidth)
	relocate := sim.Time(res.TotalFiles()) * c.RelocatePerFile
	return extract + relocate
}

// ImportCompute estimates the CPU-side import cost (bytecode compile and
// module init) once files are local; filesystem costs are charged separately
// by the filesystem model.
func (c CostModel) ImportCompute(res *pypkg.Resolution) sim.Time {
	return sim.Time(res.TotalFiles())*c.ImportPerFile +
		sim.Time(res.TotalInstalledBytes()/20)*c.ImportPerByte
}

// ImportMetaOps estimates the number of filesystem metadata operations
// (stat/open) one cold import of the closure performs.
func (c CostModel) ImportMetaOps(res *pypkg.Resolution) int {
	return int(float64(res.TotalFiles()) * c.ImportMetaFraction)
}

// ImportReadBytes estimates the bytes read from the filesystem by one cold
// import (module code, not bulk data).
func (c CostModel) ImportReadBytes(res *pypkg.Resolution) int64 {
	return res.TotalInstalledBytes() / 20
}

// ContainerRuntime describes a container technology's startup costs for the
// Table I comparison: namespace/image-mount setup dominates, and grows with
// image size.
type ContainerRuntime struct {
	Name string
	// StartupBase is fixed per-invocation overhead (namespaces, cgroups,
	// image mount).
	StartupBase sim.Time
	// StartupPerImageByte charges image preparation per byte.
	StartupPerImageByte sim.Time
	// ImageOverheadBytes is added to the environment size for the OS layers
	// a container image carries.
	ImageOverheadBytes int64
}

// ContainerRuntimes returns the three container technologies of Table I.
// Magnitudes follow the paper: all are one or more orders of magnitude
// slower to start than Conda activation.
func ContainerRuntimes() []ContainerRuntime {
	return []ContainerRuntime{
		{Name: "Singularity", StartupBase: 1.1 * sim.Second,
			StartupPerImageByte: sim.Time(1.0 / 2.5e9), ImageOverheadBytes: 350e6},
		{Name: "Shifter", StartupBase: 0.9 * sim.Second,
			StartupPerImageByte: sim.Time(1.0 / 3e9), ImageOverheadBytes: 300e6},
		{Name: "Docker", StartupBase: 1.8 * sim.Second,
			StartupPerImageByte: sim.Time(1.0 / 2e9), ImageOverheadBytes: 450e6},
	}
}

// Startup estimates cold-starting the runtime around an environment of the
// given installed size.
func (r ContainerRuntime) Startup(envBytes int64) sim.Time {
	return r.StartupBase + sim.Time(envBytes+r.ImageOverheadBytes)*r.StartupPerImageByte
}
