#include "accel/config_io.h"

#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace a3cs::accel {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next == std::string::npos ? std::string::npos
                                                          : next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

int to_int(const std::string& s) {
  std::size_t used = 0;
  const int v = std::stoi(s, &used);
  A3CS_CHECK(used == s.size(), "decode_config: bad integer '" + s + "'");
  return v;
}

double to_double(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  A3CS_CHECK(used == s.size(), "decode_config: bad number '" + s + "'");
  return v;
}

}  // namespace

std::string encode_config(const AcceleratorConfig& config) {
  std::ostringstream oss;
  // max_digits10 so the buffer-split doubles survive decode(encode(cfg))
  // byte-identically: checkpoints, result files and the fleet frontier all
  // carry the encoded text, and a restored config must be the same config.
  oss.precision(17);
  oss << "chunks=" << config.num_chunks() << ";alloc=";
  for (std::size_t i = 0; i < config.group_to_chunk.size(); ++i) {
    if (i > 0) oss << ",";
    oss << config.group_to_chunk[i];
  }
  for (const ChunkConfig& c : config.chunks) {
    oss << ";chunk=" << c.pe_rows << "x" << c.pe_cols
        << ",noc=" << static_cast<int>(c.noc)
        << ",df=" << static_cast<int>(c.dataflow) << ",toc=" << c.tile_oc
        << ",tic=" << c.tile_ic << ",split=" << c.split.input << ":"
        << c.split.weight << ":" << c.split.output;
  }
  return oss.str();
}

AcceleratorConfig decode_config(const std::string& encoded) {
  AcceleratorConfig config;
  int declared_chunks = -1;
  for (const std::string& token : split(encoded, ';')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    A3CS_CHECK(eq != std::string::npos,
               "decode_config: missing '=' in '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "chunks") {
      declared_chunks = to_int(value);
    } else if (key == "alloc") {
      for (const std::string& g : split(value, ',')) {
        if (!g.empty()) config.group_to_chunk.push_back(to_int(g));
      }
    } else if (key == "chunk") {
      ChunkConfig chunk;
      for (const std::string& field : split(value, ',')) {
        const std::size_t feq = field.find('=');
        if (feq == std::string::npos) {
          // The leading "RxC" geometry token.
          const auto dims = split(field, 'x');
          A3CS_CHECK(dims.size() == 2, "decode_config: bad PE dims '" +
                                           field + "'");
          chunk.pe_rows = to_int(dims[0]);
          chunk.pe_cols = to_int(dims[1]);
          continue;
        }
        const std::string fkey = field.substr(0, feq);
        const std::string fval = field.substr(feq + 1);
        if (fkey == "noc") {
          const int v = to_int(fval);
          A3CS_CHECK(v >= 0 && v <= 2, "decode_config: bad noc");
          chunk.noc = static_cast<Noc>(v);
        } else if (fkey == "df") {
          const int v = to_int(fval);
          A3CS_CHECK(v >= 0 && v <= 2, "decode_config: bad dataflow");
          chunk.dataflow = static_cast<Dataflow>(v);
        } else if (fkey == "toc") {
          chunk.tile_oc = to_int(fval);
        } else if (fkey == "tic") {
          chunk.tile_ic = to_int(fval);
        } else if (fkey == "split") {
          const auto parts = split(fval, ':');
          A3CS_CHECK(parts.size() == 3, "decode_config: bad split");
          chunk.split.input = to_double(parts[0]);
          chunk.split.weight = to_double(parts[1]);
          chunk.split.output = to_double(parts[2]);
        } else {
          throw std::runtime_error("decode_config: unknown field '" + fkey +
                                   "'");
        }
      }
      A3CS_CHECK(chunk.pe_rows > 0 && chunk.pe_cols > 0,
                 "decode_config: chunk missing PE dims");
      config.chunks.push_back(chunk);
    } else {
      throw std::runtime_error("decode_config: unknown key '" + key + "'");
    }
  }
  A3CS_CHECK(!config.chunks.empty(), "decode_config: no chunks");
  A3CS_CHECK(declared_chunks == config.num_chunks(),
             "decode_config: chunk count mismatch");
  for (int g : config.group_to_chunk) {
    A3CS_CHECK(g >= 0 && g < config.num_chunks(),
               "decode_config: allocation to nonexistent chunk");
  }
  return config;
}

void save_config(const std::string& path, const AcceleratorConfig& config) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_config: cannot open " + path);
  out << encode_config(config) << "\n";
}

AcceleratorConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_config: cannot open " + path);
  std::string line;
  std::getline(in, line);
  return decode_config(line);
}

}  // namespace a3cs::accel
