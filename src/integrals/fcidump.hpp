#pragma once
// FCIDUMP: the de-facto interchange format for MO-basis Hamiltonians
// (Knowles & Handy, Comput. Phys. Commun. 54, 75 (1989)).  Lets xfci
// consume integrals produced by MOLPRO / PySCF / OpenMolcas and export its
// own, so the FCI core can be validated against external packages.
//
// Format: a &FCI namelist header (NORB, NELEC, MS2, ORBSYM, ISYM) followed
// by "value i j k l" records, 1-based indices, chemists' notation:
//   value i j k l   -> (ij|kl)
//   value i j 0 0   -> h_ij
//   value 0 0 0 0   -> core energy
//
// ORBSYM stores each orbital's irrep as 1-based index.  The format does
// not name the point group; pass the group when reading symmetry-labelled
// dumps (irreps are this library's own indexing, written by write_fcidump;
// dumps from other packages using a different irrep convention should be
// read as C1 or relabelled by the caller).

#include <string>
#include <string_view>

#include "integrals/tables.hpp"

namespace xfci::integrals {

/// Writes `tables` plus the electron counts as an FCIDUMP file.
/// Only unique (8-fold) integrals above `threshold` are written.
void write_fcidump(const std::string& path, const IntegralTables& tables,
                   std::size_t nalpha, std::size_t nbeta,
                   double threshold = 1e-14);

/// Parsed FCIDUMP contents.
struct FcidumpData {
  IntegralTables tables;
  std::size_t nalpha = 0;
  std::size_t nbeta = 0;
  std::size_t isym = 0;  ///< declared wavefunction irrep (0-based)
};

/// Reads an FCIDUMP file (one read of the whole file, then
/// read_fcidump_text).  `group_name` interprets the ORBSYM labels ("C1"
/// ignores them).  Throws xfci::Error on malformed input: non-finite or
/// out-of-range integral values, out-of-range or truncated records,
/// unparsable trailing text and duplicate NORB/NELEC/MS2/ISYM/ORBSYM
/// declarations are all rejected.
FcidumpData read_fcidump(const std::string& path,
                         const std::string& group_name = "C1");

/// Same parser over an in-memory FCIDUMP image, which it reads in place.
/// Callers that already hold the file bytes (e.g. the serve layer, which
/// hashes them for its setup cache) avoid a second read from disk.
///
/// The header is every line up to the first one holding &END, &end or
/// '/'.  The records are the numbers after it, separated by C-locale
/// whitespace (space, \t, \n, \v, \f, \r) or by nothing where one
/// number ends and the next begins (`1+0.4` is two).  This is the syntax
/// `std::istream >> double` and `>> long` accept, and nothing else:
///  - a value is [+-] digits [. digits] [eE [+-] digits], where one of
///    the two mantissa digit runs may be empty (`5.`, `.5`); `nan`,
///    `inf`, hex (`0x1p3`) and Fortran `1d5` are rejected, and so are
///    `++` and `+-`;
///  - a value beyond the double range (`1e400`) is rejected; one below
///    the smallest denormal (`1e-400`) reads as a signed zero;
///  - an index is [+-] digits within the range of long.
/// Values are correctly rounded, so every file this reader accepts gives
/// the tables it gave when the reader was stream-based, bit for bit.
FcidumpData read_fcidump_text(std::string_view text,
                              const std::string& group_name = "C1");

}  // namespace xfci::integrals
