// Tiling geometry shared by ShardedDecoder (thread pool), DecodeService
// (worker processes) and ActivityGate (event-driven readout): partitions a
// rows x cols frame into an evenly dividing grid of tile_rows x tile_cols
// tiles, each padded with `halo` replicated border pixels per side. Tiles
// are addressed by their row-major grid index.
#pragma once

#include <cstddef>

#include "la/matrix.hpp"

namespace flexcs::runtime {

// The default geometry of both executors (ShardOptions, ServiceOptions):
// 32-px tiles with a 2-px halo, so every solve runs on a 36x36 padded tile.
inline constexpr std::size_t kDefaultTileSide = 32;
inline constexpr std::size_t kDefaultHalo = 2;

struct TileGrid {
  TileGrid(std::size_t rows, std::size_t cols, std::size_t tile_rows,
           std::size_t tile_cols, std::size_t halo);

  std::size_t rows;
  std::size_t cols;
  std::size_t tile_rows;
  std::size_t tile_cols;
  std::size_t halo;
  std::size_t grid_rows;
  std::size_t grid_cols;
  std::size_t padded_rows;  // tile_rows + 2 * halo
  std::size_t padded_cols;

  std::size_t tiles() const { return grid_rows * grid_cols; }
  std::size_t tile_row(std::size_t tile) const { return tile / grid_cols; }
  std::size_t tile_col(std::size_t tile) const { return tile % grid_cols; }

  /// Copies tile `tile` plus its halo out of `frame`, replicating frame
  /// border pixels where the halo sticks out of the array.
  la::Matrix extract(const la::Matrix& frame, std::size_t tile) const;
  /// Copies the interior of a decoded padded tile into the full frame.
  void stitch(const la::Matrix& padded, std::size_t tile,
              la::Matrix& out) const;
  /// Copies one tile's interior rectangle between two full-size frames
  /// (src -> dst), bit for bit. Event-driven decode serves a skipped tile
  /// this way: its pixels come verbatim from the previous reconstruction.
  void copy_interior(const la::Matrix& src, std::size_t tile,
                     la::Matrix& dst) const;
};

}  // namespace flexcs::runtime
